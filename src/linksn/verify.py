"""Self-check suites: a small corpus of links with known invariants and
the structural properties every filtered complex must satisfy.

A suite is a generator ``checks(rng)`` that yields one value per check:
``True`` if the check passed, its failure message if not.  The decorator
``_suite(name)`` registers it in ``PROPERTIES``, in definition order, as
``suite(seed=0) -> (checks, failures)``: the number of checks run and
the failure messages.  ``rng`` is ``random.Random(seed)``, so the
randomized suites rerun the same checks for the same seed.  ``run``
drives any subset of the suites and produces a summary report.
"""

import functools
import itertools
import random

from . import calculus as ca
from . import diagram as dg
from . import lee
from . import movie as mv
from .errors import InconsistentDiagram, LinkError


def corpus():
    """Named engine-sized diagrams with independently known s2 values."""
    tref = dg.parse_braid([1, 1, 1], 2)
    return [
        ("unknot", dg.unknot(), 0),
        ("U2", dg.unlink(2), 1),
        ("U3", dg.unlink(3), 2),
        ("U4", dg.unlink(4), 3),
        ("U5", dg.unlink(5), 4),
        ("hopf+", dg.parse_braid([1, 1], 2), -1),
        ("hopf-", dg.parse_braid([-1, -1], 2), 1),
        ("trefoil", tref, -2),
        ("trefoil-mirror", dg.mirror(tref), 2),
        ("figure-eight", dg.parse_braid([1, -2, 1, -2], 3), 0),
        ("sigma1^1", dg.parse_braid([1], 2), 0),
        ("sigma1^2", dg.parse_braid([1, 1], 2), -1),
        ("sigma1^4", dg.parse_braid([1] * 4, 2), -3),
        ("sigma1^5", dg.parse_braid([1] * 5, 2), -4),
        ("sigma1^6", dg.parse_braid([1] * 6, 2), -5),
        ("T(2,3)", dg.torus_link(2, 3), -2),
        ("T(3,3)", dg.torus_link(3, 3), -4),
        ("T(3,4)", dg.torus_link(3, 4), -6),
        ("tref#tref", dg.connect_sum(tref, 0, tref, 0), -4),
        ("tref|tref", dg.disjoint_union(tref, tref), -3),
        ("mixed-braid-a", dg.parse_braid([1, 1, -2], 3), None),
        ("mixed-braid-b", dg.parse_braid([2, 1, -2, 1], 3), None),
        ("hopf+_U", dg.disjoint_union(dg.parse_braid([1, 1], 2), dg.unknot()),
         0),
    ]


def _complexes(whole=False):
    """The corpus complexes: degrees -1..0 for the suites that only ask
    qgr questions, every degree if ``whole``."""
    for name, d, _ in corpus():
        yield name, lee.FilteredComplex(d, whole=whole)


PROPERTIES = {}   # suite name -> suite(seed=0), in definition order


def _suite(name):
    """Registers the generator ``checks(rng)`` as the suite ``name``,
    driven as the module docstring describes."""
    def register(checks):
        @functools.wraps(checks)
        def suite(seed=0):
            results = list(checks(random.Random(seed)))
            return len(results), [r for r in results if r is not True]
        PROPERTIES[name] = suite
        return suite
    return register


@_suite("known-values")
def check_known_values(rng):
    for name, d, expected in corpus():
        if expected is not None:
            got = lee.s2(d)
            yield got == expected or f"{name}: s2 = {got}, expected {expected}"


@_suite("d-squared")
def check_d_squared(rng):
    for name, cx in _complexes(whole=True):
        yield cx.check_d_squared() or f"{name}: d^2 != 0"


@_suite("filtration-drop")
def check_filtration_drop(rng):
    """Every differential matrix entry drops q by exactly 0 or 4: one
    check per complex, whose failure lists its bad entries."""
    for name, cx in _complexes(whole=True):
        drops = ((cx.basis_q[col] - cx.basis_q[row], row, col)
                 for col in range(cx.dim) for row, _ in cx.columns[col])
        bad = [f"q drop {drop} at entry ({row}, {col})"
               for drop, row, col in drops if drop not in (0, 4)]
        yield not bad or f"{name}: " + ", ".join(bad)


@_suite("homology-dimension")
def check_homology_dimension(rng):
    for name, cx in _complexes(whole=True):
        want = 2 ** cx.diagram.n_components
        got = cx.homology_dimension()
        yield got == want or f"{name}: homology dimension {got} != {want}"


@_suite("label-independence")
def check_label_independence(rng):
    """qgr of the canonical cycle is the same for both root labels."""
    for name, cx in _complexes():
        g_plus = cx.qgr(cx.canonical_cycle(1))
        g_minus = cx.qgr(cx.canonical_cycle(-1))
        yield (g_plus == g_minus
               or f"{name}: qgr {g_plus} (label +1) != {g_minus}")


@_suite("max-identity")
def check_max_identity(rng):
    """qgr of the canonical cycle equals the max over its parity pieces."""
    for name, cx in _complexes():
        g = cx.qgr(cx.canonical_cycle(1))
        parts = [cx.qgr(cx.h_cycle(p)) for p in (0, 1)]
        yield g == max(parts) or f"{name}: qgr(g)={g} but parts {parts}"


@_suite("eq4.1")
def check_eq41(rng):
    """qgr(h_p) = 2p + (1-n)(w + r) mod 2n at n = 2."""
    for name, cx in _complexes():
        w, r = cx.diagram.writhe, len(cx.diagram.seifert_circles)
        for p in (0, 1):
            level = cx.qgr(cx.h_cycle(p))
            yield ((level - (2 * p - (w + r))) % 4 == 0
                   or f"{name}: qgr(h_{p})={level} violates the mod-4 "
                      f"congruence (w={w}, r={r})")


@_suite("low-generator")
def check_low_generator(rng):
    for name, cx in _complexes():
        _, _, level = cx.low_generator()
        g = cx.qgr(cx.canonical_cycle(1))
        yield (level <= g
               or f"{name}: low generator level {level} > qgr(g)={g}")


@_suite("positive-formula")
def check_positive_formula(rng):
    for name, d, _ in corpus():
        if d.is_positive and d.n_crossings:
            want = -(d.n_crossings - len(d.seifert_circles) + 1)
            got = lee.s2(d)
            yield got == want or f"{name}: s2={got}, positive formula {want}"


@_suite("crossing-change")
def check_crossing_change(rng):
    """|delta s2| <= 2 over every single crossing change, with at least
    one tight instance (a check counted only when it fails)."""
    tight = False
    for name, d, _ in corpus():
        if d.n_crossings == 0:
            continue
        base = lee.s2(d)
        for k in range(d.n_crossings):
            delta = lee.s2(dg.crossing_change(d, k)) - base
            tight = tight or abs(delta) == 2
            yield (abs(delta) <= 2
                   or f"{name}: crossing {k} moved s2 by {delta}")
    if not tight:
        yield "no tight crossing-change instance observed"


@_suite("reidemeister")
def check_reidemeister(rng):
    """s2 is unchanged by R1/R2 insertions at random locations."""
    for name, d, _ in corpus():
        if d.n_components == 0:
            continue
        base = lee.s2(d)
        for kind in ("R1+", "R1-"):
            e = rng.choice(d.edges)
            d2 = mv.apply_move(d, mv.Move(kind, edges=(e,)))
            yield (lee.s2(d2) == base
                   or f"{name}: {kind} at edge {e} changed s2")
        # R2 needs adjacent arcs; try random pairs until one is planar
        pairs = [(a, b) for a in d.edges for b in d.edges if a != b]
        rng.shuffle(pairs)
        for a, b in pairs:
            d2 = mv.apply_move(d, mv.Move("R2", edges=(a, b)))
            try:
                d2.check_planar()
            except InconsistentDiagram:
                continue
            yield lee.s2(d2) == base or f"{name}: R2 at ({a}, {b}) changed s2"
            break


def _random_expr(rng, depth):
    leaves = [
        lambda: ca.EngineDiagram(dg.parse_braid([1, 1, 1], 2)),
        lambda: ca.EngineDiagram(dg.parse_braid([1, 1], 2)),
        lambda: ca.EngineDiagram(dg.parse_braid([-1, -1], 2)),
        lambda: ca.PositiveDiagram(dg.parse_braid([1] * rng.randint(1, 4), 2)),
        lambda: ca.Unknot(),
    ]
    if depth <= 0:
        return rng.choice(leaves)()
    op = rng.randrange(4)
    child = _random_expr(rng, depth - 1)
    if op == 0:
        return ca.Mirror(child)
    if op == 1:
        k = child.realize().n_crossings
        if k == 0:
            return ca.DisjointUnion([child, ca.Unknot()])
        return ca.CrossingChange(child, rng.randrange(k))
    if op == 2:
        return ca.DisjointUnion([child, ca.Unknot()])
    return ca.ConnectSum(child, _random_expr(rng, 0))


def _realizable_exprs(rng):
    """Random calculus expressions with a nonempty realization, each with
    its diagram."""
    while True:
        expr = _random_expr(rng, rng.randint(1, 3))
        try:
            d = expr.realize()
        except LinkError:
            continue
        if d.n_components:
            yield expr, d


@_suite("interval-soundness")
def check_interval_soundness(rng):
    """The engine's exact n=2 value lies in 20 random calculus intervals."""
    for expr, d in itertools.islice(_realizable_exprs(rng), 20):
        v = ca.sn_eval(expr, 2)
        exact = lee.s2(d)
        yield (v.lo <= exact <= v.hi
               or f"engine {exact} outside [{v.lo}, {v.hi}] for "
                  f"{ca.expr_to_json(expr)}")


@_suite("unlink-values")
def check_unlink_values(rng):
    for m in range(1, 6):
        yield lee.s2(dg.unlink(m)) == m - 1 or f"s2(U_{m}) != {m - 1}"
        for nn in range(2, 7):
            v = ca.sn_eval(ca.StronglySliceLink(m), nn)
            want = (nn - 1) * (m - 1)
            yield v.value == want or f"s_{nn}(U_{m}) != {want}"


def run(properties=None, seed=0):
    """Run the named suites (all by default); returns a summary dict."""
    names = list(PROPERTIES) if not properties else list(properties)
    results = {}
    ok = True
    for name in names:
        if name not in PROPERTIES:
            raise KeyError(f"unknown property suite {name!r}")
        checks, failures = PROPERTIES[name](seed=seed)
        results[name] = {"checks": checks, "failures": failures}
        if failures:
            ok = False
    return {"ok": ok, "seed": seed, "results": results}

"""Self-check suites: a small corpus of links with known invariants and
the structural properties every filtered complex must satisfy.

Each property function returns (checks_passed, failures); ``run`` drives
any subset of them and produces a summary report.  Randomized checks
take an explicit seed so reruns are reproducible.
"""

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


def check_known_values(seed=0):
    failures = []
    n = 0
    for name, d, expected in corpus():
        if expected is None:
            continue
        n += 1
        got = lee.s2(d)
        if got != expected:
            failures.append(f"{name}: s2 = {got}, expected {expected}")
    return n, failures


def check_d_squared(seed=0):
    failures = []
    n = 0
    for name, cx in _complexes(whole=True):
        n += 1
        if not cx.check_d_squared():
            failures.append(f"{name}: d^2 != 0")
    return n, failures


def check_filtration_drop(seed=0):
    """Every differential matrix entry drops q by exactly 0 or 4."""
    failures = []
    n = 0
    for name, cx in _complexes(whole=True):
        n += 1
        for col in range(cx.dim):
            for row, _ in cx.columns[col]:
                drop = cx.basis_q[col] - cx.basis_q[row]
                if drop not in (0, 4):
                    failures.append(f"{name}: q drop {drop} at entry "
                                    f"({row}, {col})")
    return n, failures


def check_homology_dimension(seed=0):
    failures = []
    n = 0
    for name, cx in _complexes(whole=True):
        n += 1
        want = 2 ** cx.diagram.n_components
        got = cx.homology_dimension()
        if got != want:
            failures.append(f"{name}: homology dimension {got} != {want}")
    return n, failures


def check_label_independence(seed=0):
    """qgr of the canonical cycle is the same for both root labels."""
    failures = []
    n = 0
    for name, cx in _complexes():
        n += 1
        g_plus = cx.qgr(cx.canonical_cycle(1))
        g_minus = cx.qgr(cx.canonical_cycle(-1))
        if g_plus != g_minus:
            failures.append(f"{name}: qgr {g_plus} (label +1) != {g_minus}")
    return n, failures


def check_max_identity(seed=0):
    """qgr of the canonical cycle equals the max over its parity pieces."""
    failures = []
    n = 0
    for name, cx in _complexes():
        n += 1
        g = cx.qgr(cx.canonical_cycle(1))
        parts = [cx.qgr(cx.h_cycle(p)) for p in (0, 1)]
        if g != max(parts):
            failures.append(f"{name}: qgr(g)={g} but parts {parts}")
    return n, failures


def check_eq41(seed=0):
    """qgr(h_p) = 2p + (1-n)(w + r) mod 2n at n = 2."""
    failures = []
    n = 0
    for name, cx in _complexes():
        st = dg.resolution_stats(cx.diagram)
        for p in (0, 1):
            n += 1
            level = cx.qgr(cx.h_cycle(p))
            if (level - (2 * p - (st.w + st.r))) % 4:
                failures.append(f"{name}: qgr(h_{p})={level} violates the "
                                f"mod-4 congruence (w={st.w}, r={st.r})")
    return n, failures


def check_low_generator(seed=0):
    failures = []
    n = 0
    for name, cx in _complexes():
        n += 1
        _, _, level = cx.low_generator()
        g = cx.qgr(cx.canonical_cycle(1))
        if level > g:
            failures.append(f"{name}: low generator level {level} > qgr(g)={g}")
    return n, failures


def check_positive_formula(seed=0):
    failures = []
    n = 0
    for name, d, _ in corpus():
        if not d.is_positive or d.n_crossings == 0:
            continue
        n += 1
        st = dg.resolution_stats(d)
        want = -(st.c - st.r + 1)
        got = lee.s2(d)
        if got != want:
            failures.append(f"{name}: s2={got}, positive formula {want}")
    return n, failures


def check_crossing_change(seed=0):
    """|delta s2| <= 2 over every single crossing change, with at least
    one tight instance."""
    failures = []
    n = 0
    tight = False
    for name, d, _ in corpus():
        if d.n_crossings == 0:
            continue
        base = lee.s2(d)
        for k in range(d.n_crossings):
            n += 1
            changed = lee.s2(dg.crossing_change(d, k))
            if abs(changed - base) > 2:
                failures.append(f"{name}: crossing {k} moved s2 by "
                                f"{changed - base}")
            if abs(changed - base) == 2:
                tight = True
    if not tight:
        failures.append("no tight crossing-change instance observed")
    return n, failures


def check_reidemeister(seed=0):
    """s2 is unchanged by R1/R2 insertions at random locations."""
    rng = random.Random(seed)
    failures = []
    n = 0
    for name, d, _ in corpus():
        if d.n_components == 0:
            continue
        base = lee.s2(d)
        for kind in ("R1+", "R1-"):
            n += 1
            e = rng.choice(d.edges)
            d2 = mv.apply_move(d, mv.Move(kind, edges=(e,)))
            if lee.s2(d2) != base:
                failures.append(f"{name}: {kind} at edge {e} changed s2")
        # R2 needs adjacent arcs; try random pairs until one is planar
        pairs = [(a, b) for a in d.edges for b in d.edges if a != b]
        rng.shuffle(pairs)
        for a, b in pairs:
            d2 = mv.apply_move(d, mv.Move("R2", edges=(a, b)))
            try:
                d2.check_planar()
            except InconsistentDiagram:
                continue
            n += 1
            if lee.s2(d2) != base:
                failures.append(f"{name}: R2 at ({a}, {b}) changed s2")
            break
    return n, failures


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


def check_interval_soundness(seed=0):
    """The engine's exact n=2 value lies in 20 random calculus intervals."""
    rng = random.Random(seed)
    failures = []
    n = 0
    while n < 20:
        expr = _random_expr(rng, rng.randint(1, 3))
        try:
            d = expr.realize()
        except LinkError:
            continue
        if d.n_components == 0:
            continue
        n += 1
        v = ca.sn_eval(expr, 2)
        exact = lee.s2(d)
        if not v.lo <= exact <= v.hi:
            failures.append(f"engine {exact} outside [{v.lo}, {v.hi}] for "
                            f"{ca.expr_to_json(expr)}")
    return n, failures


def check_unlink_values(seed=0):
    failures = []
    n = 0
    for m in range(1, 6):
        n += 1
        if lee.s2(dg.unlink(m)) != m - 1:
            failures.append(f"s2(U_{m}) != {m - 1}")
        for nn in range(2, 7):
            n += 1
            v = ca.sn_eval(ca.StronglySliceLink(m), nn)
            if v.value != (nn - 1) * (m - 1):
                failures.append(f"s_{nn}(U_{m}) != {(nn - 1) * (m - 1)}")
    return n, failures


PROPERTIES = {
    "known-values": check_known_values,
    "d-squared": check_d_squared,
    "filtration-drop": check_filtration_drop,
    "homology-dimension": check_homology_dimension,
    "label-independence": check_label_independence,
    "max-identity": check_max_identity,
    "eq4.1": check_eq41,
    "low-generator": check_low_generator,
    "positive-formula": check_positive_formula,
    "crossing-change": check_crossing_change,
    "reidemeister": check_reidemeister,
    "interval-soundness": check_interval_soundness,
    "unlink-values": check_unlink_values,
}


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

"""The four workloads: seeded inputs and the check of every output.

A workload is a list of ``Op``: one ``linksn`` command line and the
check its output must pass.  Builders take the imported ``linksn``
package, a ``random.Random`` drawn from the workload seed, the
directory for input files and the size (``full`` or ``smoke``).  The
program receives only argv strings and files.  Builders write no files:
each ``Op`` carries the files it reads, and the runner writes them after
the timed set-up.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

CORPUS = json.loads((Path(__file__).with_name("corpus.json")).read_text())
CERTIFY_MAX_CROSSINGS = 8
SMALL_INVARIANT_CROSSINGS = 6   # keeps the engine a minority of certify


class WrongAnswer(Exception):
    """An output that exits 0 but disagrees with its expected value."""


@dataclass
class Op:
    label: str
    argv: list
    check: Callable  # (exit code, stdout text) -> None, raises WrongAnswer
    files: dict = field(default_factory=dict)  # Path -> text the op reads


def _expect(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def _load_json(rc, text):
    _expect(rc == 0, f"exit code {rc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"output is not JSON: {exc}") from None


def _interval(report, n):
    v = report["s_n"][str(n)]
    lo, hi = (v["exact"], v["exact"]) if "exact" in v else (v["lo"], v["hi"])
    _expect(lo <= hi, f"s_{n} interval [{lo}, {hi}] is empty")
    return lo, hi


def _present(word, strands, rng):
    """An isotopic presentation of a braid closure: a cyclic rotation of
    the word, and the flip s_i -> s_{strands-i} (conjugation by the half
    twist) with even chance."""
    k = rng.randrange(len(word))
    word = word[k:] + word[:k]
    if rng.random() < 0.5:
        word = [(strands - abs(g)) * (1 if g > 0 else -1) for g in word]
    return word


def random_word(rng, strands, crossings, positive=True,
                every_generator=False):
    """A random braid word.  A non-positive word has crossings of both
    signs; with ``every_generator`` it uses each of s_1..s_{strands-1}."""
    while True:
        word = [rng.randint(1, strands - 1) for _ in range(crossings)]
        if not positive:
            word = [g if rng.random() < 0.5 else -g for g in word]
            if all(g > 0 for g in word) or all(g < 0 for g in word):
                continue
        if not every_generator or len({abs(g) for g in word}) == strands - 1:
            return word


def generator_count(diagram, word, strands, degree=None):
    """Generators of the closure's complex in homological ``degree``, or
    in all degrees, read from its resolutions before any timing.  Degree
    -1 holds the boundary columns ``qgr`` eliminates.  ``diagram`` is the
    ``linksn.diagram`` module."""
    d = diagram.parse_braid(word, strands)
    n_minus = sum(1 for g in word if g < 0)
    return sum(1 << len(d.circles(t)) for t in range(1 << d.n_crossings)
               if degree is None or bin(t).count("1") - n_minus == degree)


def _braid_argv(word, strands):
    return ["--braid", " ".join(map(str, word)), "--strands", str(strands)]


# -- invariant checks ---------------------------------------------------------


def _check_braid_invariant(word, strands, s2, n_range):
    """s_2 equals the recorded value; every other s_n is exact and equal to
    the positive formula on positive braids, and otherwise meets the sound
    windows of the oracle."""
    positive = all(g > 0 for g in word)

    def check(rc, text):
        report = _load_json(rc, text)
        _expect(_interval(report, 2) == (s2, s2),
                f"s_2 = {report['s_n']['2']}, expected exact {s2}")
        for n in n_range:
            lo, hi = _interval(report, n)
            if positive:
                want = oracle.positive_braid_sn(word, strands, n)
                _expect(lo == hi == want, f"s_{n} = [{lo}, {hi}], positive "
                                          f"formula gives {want}")
                continue
            plo, phi = oracle.positivization_interval(word, strands, n)
            mlo, mhi = oracle.mirror_window(word, strands, n)
            _expect(lo <= min(phi, mhi) and hi >= max(plo, mlo),
                    f"s_{n} = [{lo}, {hi}] misses the sound window")
    return check


def _check_torus(p, q, n_range, command):
    s, bounds = oracle.torus_expected(p, q, n_range)

    def check(rc, text):
        report = _load_json(rc, text)
        for n, want in s.items():
            _expect(_interval(report, n) == (want, want),
                    f"{command} T({p},{q}): s_{n} = {report['s_n'][str(n)]},"
                    f" closed form {want}")
        got = report["bounds"]
        for key, want in bounds.items():
            _expect(got.get(key) == want,
                    f"{command} T({p},{q}): {key} = {got.get(key)}, "
                    f"closed form {want}")
    return check


# -- engine workloads ---------------------------------------------------------


def engine_nonpositive(linksn, rng, workdir, size):
    """Non-positive braid closures; the degree -1 elimination in ``qgr``
    is most of the time.

    The engine corpora are fixed diagrams and the seed only orders them:
    a cyclic rotation of a braid word, an isotopy, changes the
    elimination cost by up to 2x, so drawing presentations per seed would
    make the time a property of the seed."""
    entries = CORPUS["nonpositive"]
    if size == "smoke":
        entries = [min(entries, key=lambda e: e["cm1"])]
    ops = []
    for e in entries:
        word = e["braid"]
        cm1 = generator_count(linksn.diagram, word, e["strands"], -1)
        if cm1 != e["cm1"] or cm1 > CORPUS["cm1_cap"]:
            raise RuntimeError(f"{e['name']}: C^-1 count {cm1} breaks the "
                               f"recorded size or the cap")
        oracle.check_braid_value(word, e["strands"], e["s2"])
        argv = ["invariant", *_braid_argv(word, e["strands"]),
                "--n", "2..4", "--json"]
        ops.append(Op(e["name"], argv, _check_braid_invariant(
            word, e["strands"], e["s2"], range(2, 5))))
    rng.shuffle(ops)
    return ops


def engine_positive(linksn, rng, workdir, size):
    """Positive torus links and positive braids: degree -1 is empty and
    the cube construction is nearly all of the cost."""
    entries = CORPUS["positive"]
    if size == "smoke":
        entries = [min(entries, key=lambda e: e["dim"])]
    ops = []
    for e in entries:
        if e["dim"] > CORPUS["dim_cap"]:
            raise RuntimeError(f"{e['name']}: dim {e['dim']} exceeds the cap")
        if "torus" in e:
            p, q = e["torus"]
            argv = ["invariant", "--torus", str(p), str(q)]
            check = _check_torus(p, q, range(2, 5), "invariant")
        else:
            word = e["braid"]
            argv = ["invariant", *_braid_argv(word, e["strands"])]
            s2 = oracle.positive_braid_sn(word, e["strands"], 2)
            check = _check_braid_invariant(word, e["strands"], s2, range(2, 5))
        ops.append(Op(e["name"], argv + ["--n", "2..4", "--json"], check))
    rng.shuffle(ops)
    return ops


# -- certify: expression trees ------------------------------------------------


def _braid_leaf(linksn, kind, word, strands, s):
    pd = linksn.diagram.serialize_pd(linksn.diagram.parse_braid(word, strands))
    return {"type": kind, "pd": pd,
            "l": oracle.braid_components(word, strands), "s": s,
            "crossings": len(word), "realizable": True}


def _random_leaf(linksn, rng, engine_ok):
    pick = rng.randrange(6 if engine_ok else 4)
    if pick == 0:
        strands = rng.choice([2, 3])
        word = random_word(rng, strands, rng.randint(1, 4))
        s = {str(n): oracle.positive_braid_sn(word, strands, n)
             for n in range(2, 9)}
        return _braid_leaf(linksn, "PositiveDiagram", word, strands, s)
    if pick == 1:
        return {"type": "Unknot", "l": 1, "s": {}, "crossings": 0,
                "realizable": True}
    if pick in (2, 3):
        l = rng.randint(1, 3)
        return {"type": "StronglySliceLink", "l": l, "s": {}, "crossings": 0,
                "realizable": False}
    e = rng.choice([e for e in CORPUS["small"] if e["crossings"] <= 6])
    if pick == 4:
        return _braid_leaf(linksn, "EngineDiagram", e["braid"], e["strands"],
                           {"2": e["s2"]})
    return {"type": "KnownValue", "n": 2, "value": e["s2"],
            "l": e["components"], "provenance": f"{e['provenance']}, "
                                                f"braid {e['braid']}",
            "s": {"2": e["s2"]}, "crossings": 0, "realizable": False}


def _random_expr(linksn, rng, depth, engine_ok):
    if depth == 0:
        return _random_leaf(linksn, rng, engine_ok)
    child = _random_expr(linksn, rng, depth - 1, engine_ok)
    kind = rng.choice(["DisjointUnion", "ConnectSum", "Mirror",
                       "CrossingChange", "ConcordantTo"])
    if kind in ("DisjointUnion", "ConnectSum"):
        other = _random_expr(linksn, rng, rng.randrange(depth), engine_ok)
        crossings = child["crossings"] + other["crossings"]
        realizable = child["realizable"] and other["realizable"]
        if realizable and crossings > CERTIFY_MAX_CROSSINGS:
            return child
        if kind == "DisjointUnion":
            return {"type": kind, "children": [child, other],
                    "crossings": crossings, "realizable": realizable}
        return {"type": kind, "left": child, "right": other,
                "i1": rng.randrange(oracle.expr_components(child)),
                "i2": rng.randrange(oracle.expr_components(other)),
                "crossings": crossings, "realizable": realizable}
    node = {"type": kind, "child": child, "crossings": child["crossings"],
            "realizable": child["realizable"]}
    if kind == "CrossingChange":
        if not child["realizable"] or not child["crossings"]:
            return child
        node["crossing"] = rng.randrange(child["crossings"])
    elif kind == "ConcordantTo":
        node["note"] = "benchmark: concordance by definition"
        node["realizable"] = False
    return node


_SCHEMA = {
    "PositiveDiagram": ("pd",), "EngineDiagram": ("pd",), "Unknot": (),
    "StronglySliceLink": ("l",), "KnownValue": ("n", "value", "l",
                                                "provenance"),
    "DisjointUnion": ("children",), "ConnectSum": ("i1", "i2", "left",
                                                   "right"),
    "Mirror": ("child",), "CrossingChange": ("crossing", "child"),
    "ConcordantTo": ("note", "child"),
}


def _schema_form(node):
    """The expression file form: every field the node type defines, and
    nothing of the benchmark's own annotations."""
    out = {"type": node["type"]}
    for key in _SCHEMA[node["type"]]:
        v = node[key]
        if key == "children":
            v = [_schema_form(c) for c in v]
        elif key in ("left", "right", "child"):
            v = _schema_form(v)
        out[key] = v
    return out


def _check_eval(tree, n_range):
    def check(rc, text):
        report = _load_json(rc, text)
        for n in n_range:
            lo, hi = _interval(report, n)
            true = oracle.expr_true_value(tree, n)
            _expect(true is None or lo <= true <= hi,
                    f"s_{n} = [{lo}, {hi}] misses the known value {true}")
        refined = report.get("engine_refinement", {}).get("exact")
        if 2 in n_range and refined is not None:
            lo, hi = _interval(report, 2)
            true = oracle.expr_true_value(tree, 2)
            _expect(lo <= refined <= hi and true in (None, refined),
                    f"engine value {refined} vs interval [{lo}, {hi}] and "
                    f"known value {true}")
    return check


def _eval_ops(linksn, rng, workdir, count):
    ops = []
    for i in range(count):
        engine_ok = rng.random() < 0.3
        tree = _random_expr(linksn, rng, rng.randint(1, 3), engine_ok)
        n_range = range(2, 3) if engine_ok else range(2, rng.randint(2, 8) + 1)
        path = workdir / f"expr-{i}.json"
        argv = ["eval", "--expr", str(path),
                "--n", f"{n_range.start}..{n_range.stop - 1}", "--json"]
        ops.append(Op(f"eval-{i}", argv, _check_eval(tree, n_range),
                      {path: json.dumps(_schema_form(tree))}))
    return ops


# -- certify: movies ----------------------------------------------------------


class _MovieBuilder:
    """Builds a movie move by move, replaying each move to learn edge ids
    and refusing any frame that is not planar; tracks chi and the swept
    surface from the moves it chose."""

    def __init__(self, linksn, start):
        self.mv = linksn.movie
        self.d = start
        self.moves = []
        self.chi = 0

    def apply(self, kind, edges=(), crossings=()):
        m = self.mv.Move(kind, edges=tuple(edges), crossings=tuple(crossings))
        d2 = self.mv.apply_move(self.d, m)
        if not oracle.is_planar([x.edges for x in d2.crossings]):
            raise RuntimeError(f"generated a non-planar frame by {m}")
        self.moves.append(m)
        self.chi += self.mv.CHI[kind]
        before = self.d
        self.d = d2
        return before

    def face_pair(self, rng):
        """Two arcs on a common face whose R2 gives a planar diagram."""
        if not self.d.crossings:              # split circles, side by side
            loops = self.d.loops
            return tuple(rng.sample(loops, 2)) if len(loops) > 1 else None
        crossings = [x.edges for x in self.d.crossings]
        pairs = sorted({(a, b) for f in oracle.faces(crossings)
                        for a in f for b in f if a != b})
        rng.shuffle(pairs)
        for a, b in pairs:
            trial = self.mv.apply_move(self.d,
                                       self.mv.Move("R2", edges=(a, b)))
            if oracle.is_planar([x.edges for x in trial.crossings]):
                return a, b
        return None

    def decorate(self, rng, count):
        """Reidemeister insertions, then their removals in reverse order;
        the diagram comes back with the same edge ids."""
        start = self.d
        stack = []
        for _ in range(count):
            if rng.random() < 0.5:
                kind = rng.choice(["R1+", "R1-"])
                self.apply(kind, edges=(rng.choice(self.d.edges),))
                stack.append((kind, 1))
                continue
            pair = self.face_pair(rng)
            if pair is None:
                continue
            self.apply("R2", edges=pair)
            stack.append(("R2", 2))
        for kind, size in reversed(stack):
            k = self.d.n_crossings
            self.apply(kind, crossings=tuple(range(k - size, k)))
        if (self.d.crossings, sorted(self.d.loops)) != (start.crossings,
                                                        sorted(start.loops)):
            raise RuntimeError("decorations did not restore the diagram")

    def birth(self):
        before = self.apply("H0")
        (new,) = set(self.d.loops) - set(before.loops)
        return new


def _random_movie(linksn, rng):
    """A movie ending in an unlink, with the number of swept surface
    components it was built with.  Every birth is fused into the rest."""
    dg = linksn.diagram
    base = rng.choice(["trefoil", "mirror-trefoil", "unlink"])
    if base == "unlink":
        start = dg.unlink(rng.randint(1, 3))
    else:
        start = dg.parse_braid([1, 1, 1], 2)
        if base == "mirror-trefoil":
            start = dg.mirror(start)
    start = dg.parse_pd(dg.serialize_pd(start))  # the ids the file will carry
    b = _MovieBuilder(linksn, start)
    if start.crossings:
        b.decorate(rng, rng.randint(0, 3))
        kink = "R1+" if base == "trefoil" else "R1-"
        b.apply("H1", edges=(1, 3))           # fission
        b.apply("H1", edges=(2, 4))           # fusion
        for k in (1, 0, 0):
            b.apply(kink, crossings=(k,))
        sheets = 1
    else:
        sheets = len(start.loops)
        for _ in range(rng.randrange(sheets)):  # fuse some start circles
            b.apply("H1", edges=b.d.loops[:2])
            sheets -= 1
    for _ in range(rng.randint(0, 2)):        # births fused into the rest
        new = b.birth()
        b.apply("H1", edges=(b.d.loops[0], new))
    if rng.random() < 0.5:                    # a fission and a death
        before = b.apply("H1", edges=(b.d.loops[0],) * 2)
        (new,) = set(b.d.loops) - set(before.loops)
        b.apply("H2", edges=(new,))
    if rng.random() < 0.5:                    # decorate the end circles
        b.decorate(rng, rng.randint(1, 3))
    return start, b, sheets


def _check_movie(chi, k, applies, end_circles, n_range):
    def check(rc, text):
        report = _load_json(rc, text)
        got = (report["chi"], report["surface_components"],
               report["lemma2"]["applies"])
        _expect(got == (chi, k, applies),
                f"(chi, k, applies) = {got}, generator built "
                f"{(chi, k, applies)}")
        certs = report.get("slice_certificates", [])
        _expect([c["n"] for c in certs] == list(n_range),
                "slice certificates do not cover the n range")
        chi_f = chi + end_circles
        for c in certs:
            n = c["n"]
            want = ((n - 1) * (chi_f - 1), (n - 1) * (2 * k - 1 - chi_f))
            _expect((c["lo"], c["hi"]) == want,
                    f"certificate n={n}: {(c['lo'], c['hi'])} != {want}")
    return check


def _movie_ops(linksn, rng, workdir, count):
    ops = []
    for i in range(count):
        start, b, sheets = _random_movie(linksn, rng)
        path = workdir / f"movie-{i}.jsonl"
        lines = [json.dumps({"start": linksn.diagram.serialize_pd(start)})]
        lines += [json.dumps(m.to_dict()) for m in b.moves]
        hi = 6
        argv = ["movie", "--movie", str(path), "--n", f"2..{hi}", "--json"]
        ops.append(Op(f"movie-{i}", argv, _check_movie(
            b.chi, sheets, True, len(b.d.loops), range(2, hi + 1)),
            {path: "\n".join(lines) + "\n"}))
    return ops


# -- certify: bounds and small diagrams ---------------------------------------


SMALL_TORUS = [(p, q) for p in range(2, 6) for q in range(2, 9)
               if (p - 1) * q <= CERTIFY_MAX_CROSSINGS]


def _bounds_ops(rng, count):
    """Torus links in a fixed rotation, so every seed gets the same sizes."""
    ops = []
    for i in range(count):
        p, q = SMALL_TORUS[i % len(SMALL_TORUS)]
        n_range = range(2, rng.randint(2, 6) + 1)
        argv = ["bounds", "--torus", str(p), str(q),
                "--n", f"2..{n_range.stop - 1}", "--json"]
        ops.append(Op(f"bounds-T({p},{q})", argv,
                      _check_torus(p, q, n_range, "bounds")))
    return ops


def _small_invariant_ops(rng, size, repeat):
    """Every small corpus braid ``repeat`` times, each in a seeded
    presentation, and positive braids of each length from 2 to 6
    crossings twice as often."""
    small = [e for e in CORPUS["small"]
             if e["crossings"] <= SMALL_INVARIANT_CROSSINGS]
    for e in small:
        oracle.check_braid_value(e["braid"], e["strands"], e["s2"])
    small *= repeat
    cases = [(e["name"], _present(e["braid"], e["strands"], rng),
              e["strands"], e["s2"]) for e in small]
    for crossings in list(range(2, 7)) * 2 * repeat:
        strands = rng.choice([2, 3])
        word = random_word(rng, strands, crossings)
        cases.append(("small-positive", word, strands,
                      oracle.positive_braid_sn(word, strands, 2)))
    if size == "smoke":
        cases = cases[:1] + cases[-1:]
    return [Op(label, ["invariant", *_braid_argv(word, strands),
                       "--n", "2..8", "--json"],
               _check_braid_invariant(word, strands, s2, range(2, 9)))
            for label, word, strands, s2 in cases]


def certify(linksn, rng, workdir, size):
    """Several hundred small certificate and calculus operations; no
    engine input has more than eight crossings."""
    scale = 1 if size == "smoke" else 30
    ops = (_eval_ops(linksn, rng, workdir, 4 * scale)
           + _movie_ops(linksn, rng, workdir, 3 * scale)
           + _bounds_ops(rng, scale)
           + _small_invariant_ops(rng, size, 2))
    rng.shuffle(ops)
    return ops


# -- verify -------------------------------------------------------------------


VERIFY_SEEDS = (0, 1, 2)


def verify_suites(linksn, rng, workdir, size):
    """``verify`` over all 13 suites for seeds 0, 1 and 2, one suite per
    operation: many ``qgr`` questions and full homology ranks on each
    built complex.  The verify seeds are fixed, because the random suites
    build complexes of seed-dependent size; the run seed orders the
    operations."""
    names = sorted(linksn.verify.PROPERTIES)
    if size == "smoke":
        names = names[-1:]
    ops = []
    for seed in VERIFY_SEEDS[:1] if size == "smoke" else VERIFY_SEEDS:
        for name in names:
            ops.append(Op(f"verify-{name}", ["verify", "--property", name,
                                             "--seed", str(seed), "--json"],
                          _check_verify(name)))
    rng.shuffle(ops)
    return ops


def _check_verify(name):
    def check(rc, text):
        report = _load_json(rc, text)
        _expect(report["ok"], f"verify {name} reports a failure")
        _expect(list(report["results"]) == [name],
                f"verify ran {list(report['results'])}, not [{name!r}]")
    return check


WORKLOADS = {
    "engine-nonpositive": engine_nonpositive,
    "engine-positive": engine_positive,
    "certify": certify,
    "verify-suites": verify_suites,
}

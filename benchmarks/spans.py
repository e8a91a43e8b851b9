"""Outside-in layer tracing for the traced run.

``Tracer.install`` wraps the public callables of ``cli``, ``diagram``,
``lee``, ``linalg``, ``calculus``, ``movie`` and ``verify`` at the points
where callers look them up (module attributes, class attributes and the
``verify.PROPERTIES`` table), and ``uninstall`` puts the originals back.
Nothing in ``src/linksn`` is edited.

Spans carry a name, start, end and parent.  Repeated calls of one name
under one parent span are merged into a single record with a call count
and busy time, so a reduction with 10^5 row operations costs one record,
not 10^5.  Records stay in memory until ``write``.  A span's self time
is its duration minus the time covered by its child spans.  Time spent
reading size counters is excluded from every open span.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter

# group name -> (module, owner, attribute) for every wrapped callable;
# owner is a class name inside the module, or None for a module function
LAYERS = {
    "cli.main": [("cli", None, "main")],
    "lee.build": [("lee", "FilteredComplex", "_build")],
    "lee.qgr": [("lee", "FilteredComplex", "qgr")],
    "lee.cycle": [("lee", "FilteredComplex", "canonical_cycle"),
                  ("lee", "FilteredComplex", "h_cycle")],
    "lee.check": [("lee", "FilteredComplex", "check_d_squared"),
                  ("lee", "FilteredComplex", "homology_rank")],
    "linalg.reduce": [("linalg", "Echelon", "reduce")],
    "linalg.rank": [("linalg", None, "rank")],
    "linalg.in_span": [("linalg", None, "in_span")],
    "diagram.circles": [("diagram", "LinkDiagram", "circles")],
    "diagram.parse": [("diagram", None, f) for f in
                      ("parse_pd", "parse_braid", "torus_link", "from_json")],
    "diagram.serialize": [("diagram", None, "serialize_pd"),
                          ("diagram", None, "to_json")],
    "diagram.rewrite": [("diagram", "LinkDiagram", "canonical")] + [
        ("diagram", None, f) for f in
        ("mirror", "crossing_change", "disjoint_union", "connect_sum",
         "sublink", "splice_edges")],
    "calculus.eval": [("calculus", None, "sn_eval")] + [
        ("calculus", cls, "eval") for cls in
        ("PositiveDiagram", "EngineDiagram", "Unknot", "StronglySliceLink",
         "KnownValue", "DisjointUnion", "ConnectSum", "Mirror",
         "CrossingChange", "ConcordantTo")],
    "calculus.interval": [("calculus", None, f) for f in
                          ("sn_positive", "sn_diagram_interval",
                           "g4_lower_bound", "sp_lower_bound",
                           "genus_positive", "torus_g4", "torus_splitting")],
    "calculus.refine": [("calculus", None, "refine_with_engine")],
    "calculus.expr_io": [("calculus", None, f) for f in
                         ("expr_from_json", "expr_from_dict", "expr_to_json")],
    "movie.load": [("movie", None, "load_movie"),
                   ("movie", None, "movie_from_lines")],
    "movie.validate": [("movie", None, "validate_movie"),
                       ("movie", None, "generator_fate"),
                       ("movie", None, "apply_move")],
    "movie.order": [("movie", None, "check_lobb_order")],
    "movie.cert": [("movie", None, "slice_certificate"),
                   ("movie", "Ledger", "lemma2_certificate")],
    "verify.run": [("verify", None, "run")],
}


class Tracer:
    def __init__(self):
        self.records = []         # [id, parent, name, start, end, count, busy]
        self.stack = []           # open: [record id, start, child, excl]
        self.merge = {}           # (parent id, name) -> record id
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.excluded = 0.0
        self.qgr_depth = 0        # open qgr calls, to count their echelons
        self._patches = []

    # -- spans -------------------------------------------------------------

    def enter(self, name, merge=True):
        parent = self.stack[-1][0] if self.stack else None
        now = perf_counter()
        key = (parent, name)
        rid = self.merge.get(key) if merge else None
        if rid is None:
            rid = len(self.records)
            self.records.append([rid, parent, name, now, now, 0, 0.0])
            if merge:
                self.merge[key] = rid
        self.stack.append([rid, now, 0.0, self.excluded])

    def exit(self):
        rid, start, child, excl = self.stack.pop()
        now = perf_counter()
        dur = now - start - (self.excluded - excl)
        rec = self.records[rid]
        rec[4] = now
        rec[5] += 1
        rec[6] += dur
        name = rec[2]
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def exclude_since(self, t0):
        """Remove the time since ``t0`` from every open span."""
        self.excluded += perf_counter() - t0

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        orig = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, value)

    def install(self, linksn):
        for name, targets in LAYERS.items():
            for mod, cls, attr in targets:
                owner = getattr(linksn, mod)
                if cls is not None:
                    owner = getattr(owner, cls)
                self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        self._install_counters(linksn)
        props = linksn.verify.PROPERTIES
        for suite, fn in list(props.items()):
            self._patch_item(props, suite, self._suite(suite, fn))

    def _patch_item(self, table, key, value):
        self._patches.append((table, key, table[key]))
        table[key] = value

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def _suite(self, suite, fn):
        traced = self.span(f"verify.suite.{suite}", fn)

        def run_suite(*args, **kwargs):
            checks, failures = traced(*args, **kwargs)
            self.counts["verify.checks"] += checks
            return checks, failures
        return run_suite

    def _install_counters(self, linksn):
        """Size counters read from the objects the program builds."""
        lee, linalg, movie, calculus = (linksn.lee, linksn.linalg,
                                        linksn.movie, linksn.calculus)
        tracer = self
        fc = lee.FilteredComplex
        build, qgr = fc.__dict__["_build"], fc.__dict__["qgr"]

        def counted_build(cx):
            build(cx)
            t0 = perf_counter()
            tracer.counts["lee.builds"] += 1
            tracer.counts["lee.dim"] += cx.dim
            tracer.maxima["lee.max_dim"] = max(tracer.maxima["lee.max_dim"],
                                               cx.dim)
            tracer.counts["lee.nnz"] += sum(len(c) for c in cx.columns)
            tracer.counts["lee.boundary_cols"] += len(cx.by_h.get(-1, ()))
            tracer.exclude_since(t0)
        self._patch(fc, "_build", counted_build)

        def counted_qgr(cx, chain):
            tracer.counts["lee.qgr_calls"] += 1
            tracer.qgr_depth += 1
            try:
                return qgr(cx, chain)
            finally:
                tracer.qgr_depth -= 1
        self._patch(fc, "qgr", counted_qgr)

        ech = linalg.Echelon
        init, add, reduce = (ech.__dict__["__init__"], ech.__dict__["add"],
                             ech.__dict__["reduce"])

        def counted_init(e):
            init(e)
            tracer.counts["linalg.echelons"] += 1
            if tracer.qgr_depth:
                tracer.counts["linalg.echelons_in_qgr"] += 1
        self._patch(ech, "__init__", counted_init)

        def counted_reduce(e, vec):
            e._bench_last = reduce(e, vec)
            return e._bench_last
        self._patch(ech, "reduce", counted_reduce)

        def counted_add(e, vec):
            grew = add(e, vec)
            t0 = perf_counter()
            tracer.counts["linalg.adds"] += 1
            if grew:
                tracer.counts["linalg.pivots"] += 1
                row = e._bench_last
                bits = max(abs(v) for v in row.values()).bit_length()
                if bits > tracer.maxima["linalg.max_coeff_bits"]:
                    tracer.maxima["linalg.max_coeff_bits"] = bits
            tracer.exclude_since(t0)
            return grew
        self._patch(ech, "add", counted_add)

        validate = movie.validate_movie

        def counted_validate(m):
            ledger = validate(m)
            tracer.counts["movie.replays"] += 1
            tracer.counts["movie.frames"] += len(ledger.frames)
            return ledger
        self._patch(movie, "validate_movie", counted_validate)

        fate = movie.generator_fate

        def counted_fate(*args, **kwargs):
            tracer.counts["movie.replays"] += 1
            return fate(*args, **kwargs)
        self._patch(movie, "generator_fate", counted_fate)

        load = movie.load_movie

        def counted_load(path):
            tracer.counts["movie.files"] += 1
            return load(path)
        self._patch(movie, "load_movie", counted_load)

        sn_eval = calculus.sn_eval

        def counted_eval(expr, n):
            v = sn_eval(expr, n)
            tracer.counts["calculus.eval_calls"] += 1
            tracer.counts["calculus.exact"] += v.exact
            return v
        self._patch(calculus, "sn_eval", counted_eval)

    # -- output ---------------------------------------------------------------

    def write(self, path, ops):
        """Span records as JSON lines; root spans name their operation.
        ``ops`` maps each root record id to its ``Op``."""
        with open(path, "w") as fh:
            for rid, parent, name, start, end, count, busy in self.records:
                rec = {"id": rid, "parent": parent, "name": name,
                       "start": start, "end": end, "count": count,
                       "busy": busy}
                if parent is None:
                    rec["op"] = ops[rid].label
                    rec["argv"] = ops[rid].argv
                fh.write(json.dumps(rec) + "\n")

    def op_summaries(self):
        """For each root span, the inclusive busy time per span name
        below it."""
        children = defaultdict(list)
        for rec in self.records:
            if rec[1] is not None:
                children[rec[1]].append(rec)
        out = {}
        for root in (rec[0] for rec in self.records if rec[1] is None):
            busy = out[root] = defaultdict(float)
            todo = [root]
            while todo:
                for rec in children.get(todo.pop(), ()):
                    busy[rec[2]] += rec[6]
                    todo.append(rec[0])
        return out

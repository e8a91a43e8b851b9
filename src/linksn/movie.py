"""Movies of elementary cobordisms and their bookkeeping.

A movie is a start diagram plus a sequence of Reidemeister moves
(R1+/R1-/R2/R3) and Morse moves (H0 birth, H1 saddle, H2 death).  We
never compute the chain-level cobordism maps; validation replays the
moves combinatorially and records what the inequalities need: Euler
characteristic, the components of the swept surface, the fate of the
canonical generators, and the move ordering of the genus-bound proof.

One replay generator, ``_replay``, applies the moves and carries a tag
per edge through saddles, inherited edges and births: ``validate_movie``
tags edges with the surface sheet they sweep, ``generator_fate`` with a
generator label.  The move-order check and the slice certificates read
the ``Ledger`` that ``validate_movie`` returns, so one replay serves a
whole report.  They return plain values: ``check_lobb_order`` None or
the index of the first out-of-order move, ``slice_certificate`` the
dict that ``movie --json`` prints.

Reidemeister kinds are bidirectional: giving ``edges`` inserts the
pattern, giving ``crossings`` removes it.

A movie file is JSON lines: ``{"start": PD text}``, then one
``Move.to_dict()`` per move, naming edges and crossings as ``parse_pd``
numbers the start.
"""

import json
from dataclasses import dataclass, field

from . import diagram as dg
from .diagram import (Crossing, LinkDiagram, _crossing_from_strands,
                      _swap_incoming)
from .errors import (
    InapplicableMove,
    InconsistentDiagram,
    IndexOutOfRange,
    InputError,
    NotEndingInUnlink,
)

CHI = {"R1+": 0, "R1-": 0, "R2": 0, "R3": 0, "H0": 1, "H1": -1, "H2": 1}


@dataclass(frozen=True)
class Move:
    kind: str
    edges: tuple = ()
    crossings: tuple = ()
    comment: str = ""

    def __post_init__(self):
        if self.kind not in CHI:
            raise InapplicableMove(f"unknown move kind {self.kind!r}")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "crossings", tuple(self.crossings))

    def to_dict(self):
        out = {"kind": self.kind}
        if self.edges:
            out["edges"] = list(self.edges)
        if self.crossings:
            out["crossings"] = list(self.crossings)
        if self.comment:
            out["comment"] = self.comment
        return out


@dataclass
class Movie:
    start: LinkDiagram
    moves: list = field(default_factory=list)


# -- single-move rewriting ----------------------------------------------------


def _fresh(d, count):
    base = max(d.edges, default=0)
    return [base + i + 1 for i in range(count)]


def _rename(crossings, old, new):
    out = []
    for x in crossings:
        e = [x.a, x.b, x.c, x.d]
        out.append(Crossing(*(new if v == old else v for v in e), x.sign))
    return out


def _apply(d, m):
    """Returns (new diagram, info) where info records edge genealogy:
    ``inherit`` maps new/kept edge -> parent edge, ``births`` lists loop
    edges created, ``spliced`` holds H1 arcs."""
    info = {"inherit": {}, "births": [], "spliced": None}
    if m.kind in ("R1+", "R1-"):
        d2 = _r1(d, m, info)
    elif m.kind == "R2":
        d2 = _r2(d, m, info)
    elif m.kind == "R3":
        d2 = _r3(d, m, info)
    elif m.kind == "H0":
        new = _fresh(d, 1)[0]
        info["births"].append(new)
        d2 = LinkDiagram(d.crossings, d.loops + (new,))
    elif m.kind == "H1":
        if len(m.edges) != 2:
            raise InapplicableMove("H1 needs the two arcs being joined")
        e1, e2 = m.edges
        d2 = dg.splice_edges(d, e1, e2)
        info["spliced"] = (e1, e2)
        for e in set(d2.loops) - set(d.loops):
            info["inherit"][e] = e1
    elif m.kind == "H2":
        if len(m.edges) != 1:
            raise InapplicableMove("H2 needs one circle edge")
        e = m.edges[0]
        if e not in d.loops:
            raise InapplicableMove(
                f"edge {e} is not a crossing-free circle disjoint from the rest")
        d2 = LinkDiagram(d.crossings, tuple(x for x in d.loops if x != e))
    else:  # pragma: no cover - guarded by Move.__post_init__
        raise InapplicableMove(f"unknown move kind {m.kind!r}")
    return d2, info


def _r1(d, m, info):
    sign = 1 if m.kind == "R1+" else -1
    if len(m.edges) + len(m.crossings) != 1:
        raise InapplicableMove(
            "R1 takes one edge (insert) or one crossing (remove)")
    if m.edges:
        (e,) = m.edges
        if e not in d.successor:
            raise InapplicableMove(f"no edge {e} to kink")
        f, g = _fresh(d, 2)
        if e in d.loops:
            x = Crossing(e, e, g, g, 1) if sign > 0 else Crossing(e, g, g, e, -1)
            info["inherit"][g] = e
            return LinkDiagram(d.crossings + (x,),
                               tuple(x for x in d.loops if x != e))
        crossings = [_swap_incoming(x, e, f) for x in d.crossings]
        x = Crossing(e, f, g, g, 1) if sign > 0 else Crossing(e, g, g, f, -1)
        info["inherit"][f] = e
        info["inherit"][g] = e
        return LinkDiagram(crossings + [x], d.loops)
    (k,) = m.crossings
    if not 0 <= k < d.n_crossings:
        raise InapplicableMove(f"no crossing {k}")
    x = d.crossings[k]
    if x.sign != sign:
        raise InapplicableMove(f"crossing {k} has the wrong sign for {m.kind}")
    ins = {x.a, x.over_in}
    outs = {x.c, x.over_out}
    loops = ins & outs
    if not loops:
        raise InapplicableMove(f"crossing {k} is not a kink")
    rest = [y for i, y in enumerate(d.crossings) if i != k]
    if len(loops) == 2:
        # standalone kinked circle; it becomes a free loop
        e = min(loops)
        info["births"].append(e)
        return LinkDiagram(rest, d.loops + (e,))
    loop = loops.pop()
    e_in = (ins - {loop}).pop()
    e_out = (outs - {loop}).pop()
    if e_in == e_out:
        info["births"].append(e_in)
        return LinkDiagram(rest, d.loops + (e_in,))
    info["inherit"][e_in] = e_out
    return LinkDiagram(_rename(rest, e_out, e_in), d.loops)


def _r2(d, m, info):
    if m.edges and not m.crossings:
        e_a, e_b = m.edges if len(m.edges) == 2 else (None, None)
        if e_a is None or e_a == e_b:
            raise InapplicableMove("R2 insertion needs two distinct edges")
        for e in (e_a, e_b):
            if e not in d.successor:
                raise InapplicableMove(f"no edge {e}")
        m_a, m_b, f_a, f_b = _fresh(d, 4)
        crossings = list(d.crossings)
        loops = list(d.loops)
        if e_a in d.loops:
            loops.remove(e_a)
            f_a = e_a
        else:
            crossings = [_swap_incoming(x, e_a, f_a) for x in crossings]
            info["inherit"][f_a] = e_a
        if e_b in d.loops:
            loops.remove(e_b)
            f_b = e_b
        else:
            crossings = [_swap_incoming(x, e_b, f_b) for x in crossings]
            info["inherit"][f_b] = e_b
        info["inherit"][m_a] = e_a
        info["inherit"][m_b] = e_b
        # strand A passes over strand B twice, with cancelling signs
        x1 = Crossing(e_b, m_a, m_b, e_a, 1)
        x2 = Crossing(m_b, m_a, f_b, f_a, -1)
        return LinkDiagram(crossings + [x1, x2], loops)
    if m.crossings and not m.edges:
        if len(m.crossings) != 2:
            raise InapplicableMove("R2 removal needs two crossings")
        k1, k2 = m.crossings
        for k in (k1, k2):
            if not 0 <= k < d.n_crossings:
                raise InapplicableMove(f"no crossing {k}")
        if k1 == k2:
            raise InapplicableMove("R2 removal needs two distinct crossings")
        x1, x2 = d.crossings[k1], d.crossings[k2]
        if x1.sign + x2.sign != 0:
            raise InapplicableMove("R2 removal needs cancelling signs")
        # a bigon: one strand over at both crossings, one under at both,
        # with both middle edges running from the same crossing to the other
        joins = None
        for p, q in ((x1, x2), (x2, x1)):
            if p.over_out != q.over_in:
                continue
            if p.c == q.a and p.c != p.over_out:
                # parallel strands: both pass p first
                joins = ((p.over_in, q.over_out), (p.a, q.c))
                break
            if q.c == p.a and q.c != p.over_out:
                # anti-parallel: the under-strand passes q first
                joins = ((p.over_in, q.over_out), (q.a, p.c))
                break
        if joins is None:
            raise InapplicableMove("crossings do not bound an R2 bigon")
        rest = [y for i, y in enumerate(d.crossings) if i not in (k1, k2)]
        loops = list(d.loops)
        # reconnect each strand across the deleted bigon
        for e_in, e_out in joins:
            if e_in == e_out:
                info["births"].append(e_in)
                loops.append(e_in)
            else:
                info["inherit"][e_in] = e_out
                rest = _rename(rest, e_out, e_in)
        return LinkDiagram(rest, loops)
    raise InapplicableMove("R2 takes two edges (insert) or two crossings (remove)")


def _r3(d, m, info):
    if len(m.crossings) != 3:
        raise InapplicableMove("R3 needs the three crossings of the triangle")
    for k in m.crossings:
        if not 0 <= k < d.n_crossings:
            raise InapplicableMove(f"no crossing {k}")
    k1, k2, k3 = m.crossings
    xs = {k: d.crossings[k] for k in (k1, k2, k3)}
    pairs = [(k1, k2), (k1, k3), (k2, k3)]
    mids = {}
    for p, q in pairs:
        shared = set(xs[p].edges) & set(xs[q].edges)
        if len(shared) != 1:
            raise InapplicableMove(
                "triangle crossings must pairwise share exactly one edge")
        mids[(p, q)] = shared.pop()
    if len(set(mids.values())) != 3:
        raise InapplicableMove("triangle edges are not distinct")

    # the moving strand is the one through the k1-k2 edge; it must pass
    # the other two strands on the same level at both crossings
    alpha = mids[(k1, k2)]
    role = {}
    for k in (k1, k2):
        x = xs[k]
        if alpha in (x.over_in, x.over_out):
            role[k] = "over"
        else:
            role[k] = "under"
    if role[k1] != role[k2]:
        raise InapplicableMove(
            "moving strand must be entirely over or entirely under")

    # per strand: middle edge runs from crossing p (out) to q (in); after
    # the move the strand meets q first and p second
    new_ends = {}  # crossing -> {"over": (in, out), "under": (in, out)} updates
    for (p, q), mid in mids.items():
        xp, xq = xs[p], xs[q]
        if mid in (xp.c, xp.over_out):
            first, second = p, q
        else:
            first, second = q, p
        xf, xs_ = xs[first], xs[second]
        lvl_f = "over" if mid in (xf.over_in, xf.over_out) else "under"
        lvl_s = "over" if mid in (xs_.over_in, xs_.over_out) else "under"
        e_in = xf.over_in if lvl_f == "over" else xf.a
        e_out = xs_.over_out if lvl_s == "over" else xs_.c
        # strand now enters `second` from outside and exits `first`
        new_ends.setdefault(second, {})[lvl_s] = (e_in, mid)
        new_ends.setdefault(first, {})[lvl_f] = (mid, e_out)

    crossings = list(d.crossings)
    for k in (k1, k2, k3):
        x = xs[k]
        u_in, u_out = new_ends[k]["under"]
        o_in, o_out = new_ends[k]["over"]
        crossings[k] = _crossing_from_strands(u_in, u_out, o_in, o_out, x.sign)
    return LinkDiagram(crossings, d.loops)


def apply_move(d, m):
    """The diagram after one move; raises InapplicableMove on pattern failure.

    The result is not checked for planarity: an R2 can give a PD that no
    plane drawing has.  Replay checks every frame."""
    return _apply(d, m)[0]


# -- replay and bookkeeping ---------------------------------------------------


def _replay(movie, tag, born):
    """Apply the moves of ``movie`` in order, carrying a tag per edge.

    ``tag`` maps every edge of the start diagram to a tag and is updated
    in place: after a saddle every edge of the joined components carries
    the first arc's tag, an inherited edge takes its parent's tag, and a
    birth circle without a tag gets ``born(move)``.  Yields (move, the
    diagram before it, the diagram after it, the pair of tags the saddle
    joined or None).  An inapplicable move, one on an unknown edge, or one
    that leaves a frame that is not planar raises InapplicableMove with its
    index.
    """
    d = movie.start
    for i, m in enumerate(movie.moves):
        try:
            d2, info = _apply(d, m)
            d2.check_planar()
        except (InapplicableMove, InconsistentDiagram, IndexOutOfRange) as exc:
            raise InapplicableMove(f"move {i} ({m.kind}): {exc}", index=i) from exc
        joined = None
        if info["spliced"]:
            e1, e2 = info["spliced"]
            joined = tag[e1], tag[e2]
            for cid in {d.edge_component[e1], d.edge_component[e2]}:
                for e in d.components[cid]:
                    tag[e] = joined[0]
        for new, parent in info["inherit"].items():
            if parent in tag:
                tag[new] = tag[parent]
        for e in info["births"]:
            if e not in tag:
                tag[e] = born(m)
        yield m, d, d2, joined
        d = d2


@dataclass
class Ledger:
    chi: int
    end: LinkDiagram
    frames: list                 # diagrams D_0 ... D_n
    kinds: list                  # per-move phase class: O R U I T
    k: int                       # connected components of the swept surface
    h0_absorbed: bool            # every birth circle later fused in

    def lemma2_certificate(self):
        """The concordance-inequality instance this movie witnesses.

        The inequality needs the composite map to carry the canonical
        generator to a nonzero multiple.  Constant labelings merge equal
        labels under fusion and duplicate under fission, so every
        elementary move does this except a 0-handle, whose new circle
        must be fused into the rest before the end of the movie.
        """
        return {
            "theorem": "cobordism inequality",
            "chi": self.chi,
            "inequality": (f"s_n(start) - (n-1)*({self.chi}) >= s_n(end)"
                           " for all n >= 2"),
            "applies": self.h0_absorbed,
        }


def _classify(kind, fusion):
    if kind == "H0":
        return "O"
    if kind == "H2":
        return "T"
    if kind == "H1":
        return "U" if fusion else "I"
    return "R"


def validate_movie(movie):
    """Replay a movie; returns the Ledger or raises InapplicableMove
    with the index of the offending move."""
    # worldsheet bookkeeping: each link component sweeps out a sheet,
    # tagged on its edges; saddles glue sheets, births start new ones
    parents = {}
    h0_sheets = []

    def find(s):
        while parents[s] != s:
            parents[s] = parents[parents[s]]
            s = parents[s]
        return s

    def new_sheet(m=None):
        s = len(parents)
        parents[s] = s
        if m is not None and m.kind == "H0":
            h0_sheets.append(s)
        return s

    sheet = {}
    for comp in movie.start.components:
        s = new_sheet()
        for e in comp:
            sheet[e] = s
    n_start_sheets = len(parents)

    chi = 0
    frames = [movie.start]
    kinds = []
    for m, d, d2, joined in _replay(movie, sheet, new_sheet):
        if joined:
            parents[find(joined[0])] = find(joined[1])
        kinds.append(_classify(m.kind, d2.n_components < d.n_components))
        chi += CHI[m.kind]
        frames.append(d2)

    k = len({find(s) for s in parents})
    start_roots = {find(s) for s in range(n_start_sheets)}
    h0_absorbed = all(find(s) in start_roots for s in h0_sheets)
    return Ledger(chi=chi, end=frames[-1], frames=frames, kinds=kinds, k=k,
                  h0_absorbed=h0_absorbed)


def generator_fate(movie, labeling, birth_label=1):
    """Track a (possibly non-constant) labeling of the start components.

    ``labeling`` lists one label per component of the start diagram, in
    component order.  A fusion of circles with different labels kills
    the generator; fission duplicates the label; births take
    ``birth_label``.  Returns (survives, end labeling per component).
    """
    d = movie.start
    if len(labeling) != d.n_components:
        raise ValueError("one label per start component")
    label = {e: lab for comp, lab in zip(d.components, labeling)
             for e in comp}
    survives = True
    for _, _, d, joined in _replay(movie, label, lambda m: birth_label):
        if joined and joined[0] != joined[1]:
            survives = False
    return survives, tuple(label[min(comp)] for comp in d.components)


# -- move ordering -------------------------------------------------------------

_PHASES = lambda g: [("O", None), ("R", None), ("U", None),
                     ("I", g), ("U", g), ("RI", None), ("RT", None)]


def check_lobb_order(ledger):
    """Does the replayed move sequence follow the genus-proof phase order?

    Phases: 0-handles, Reidemeister moves, fusions, g fissions, g
    fusions, Reidemeister/fission moves, then Reidemeister moves and
    2-handles.  Returns None if some phase assignment accepts every
    move, else the index of the first move that none can accept.
    """
    s = ledger.kinds
    best_fail = -1
    for g in range(s.count("I") + 1):
        pos = 0
        ok = True
        for allowed, count in _PHASES(g):
            if count is None:
                while pos < len(s) and s[pos] in allowed:
                    pos += 1
            else:
                for _ in range(count):
                    if pos < len(s) and s[pos] in allowed:
                        pos += 1
                    else:
                        ok = False
                        break
            if not ok:
                break
        if ok and pos == len(s):
            return None
        best_fail = max(best_fail, pos if pos < len(s) else len(s) - 1)
    return best_fail


# -- slice certificates ----------------------------------------------------------


def slice_certificate(ledger, n):
    """Both genus-bound inequalities instantiated by a replayed movie
    ending in an unlink: (n-1)(2k-1-chi(F)) >= s_n(L) >= (n-1)(chi(F)-1).

    F is the movie's surface capped with one disk per end circle, and k
    its number of connected components.  Returns the certificate as the
    dict ``movie --json`` prints."""
    end = ledger.end
    if end.n_crossings or end.n_components == 0:
        raise NotEndingInUnlink(
            "slice certificates need a movie ending in an unlink")
    m_circles = len(end.loops)
    chi_f = ledger.chi + m_circles
    k = ledger.k
    lo = (n - 1) * (chi_f - 1)
    hi = (n - 1) * (2 * k - 1 - chi_f)
    return {
        "theorem": "genus bound for slice surfaces",
        "n": n,
        "chi_movie": ledger.chi,
        "chi_F": chi_f,
        "k": k,
        "end_circles": m_circles,
        "lo": lo,
        "hi": hi,
        "inequalities": [
            f"s_{n}(L) >= ({n}-1)*(chi(F)-1) = {lo}",
            f"({n}-1)*(2k-1-chi(F)) = {hi} >= s_{n}(L)",
        ],
    }


# -- file format -----------------------------------------------------------------


_REQUIRED = object()


def _field(data, key, number, expected, default=_REQUIRED):
    """``data[key]``, checked to be an ``expected``, where ``data`` is the
    movie's ``number``-th record; ``default`` if the key is optional and
    absent."""
    if not isinstance(data, dict):
        raise InputError(f"movie record {number} must be a JSON object, "
                         f"not {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"movie record {number} needs {key!r}")
        return default
    if not isinstance(data[key], expected):
        raise InputError(f"{key!r} of movie record {number} must be a "
                         f"{expected.__name__}, not "
                         f"{type(data[key]).__name__}")
    return data[key]


def _ids(data, key, number):
    """The optional list of edge or crossing ids ``data[key]``, as a tuple
    of integers."""
    ids = tuple(_field(data, key, number, list, []))
    for v in ids:
        if type(v) is not int:
            raise InputError(f"{key!r} of movie record {number} must list "
                             f"integers, not {type(v).__name__}")
    return ids


def movie_from_lines(lines):
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise NotEndingInUnlink("empty movie file")
    try:
        records = [json.loads(ln) for ln in lines]
    except RecursionError:
        raise InputError("movie record nested too deeply") from None
    start = dg.parse_pd(_field(records[0], "start", 1, str))
    moves = []
    for number, data in enumerate(records[1:], start=2):
        moves.append(Move(kind=_field(data, "kind", number, str),
                          edges=_ids(data, "edges", number),
                          crossings=_ids(data, "crossings", number),
                          comment=_field(data, "comment", number, str, "")))
    return Movie(start, moves)


def load_movie(path):
    with open(path) as fh:
        return movie_from_lines(fh.readlines())

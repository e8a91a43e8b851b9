"""Movies of elementary cobordisms and their bookkeeping.

A movie is a start diagram plus a sequence of Reidemeister moves
(R1+/R1-/R2/R3) and Morse moves (H0 birth, H1 saddle, H2 death).  We
never compute the chain-level cobordism maps; validation replays the
moves combinatorially and records what the inequalities need: Euler
characteristic, the components of the swept surface, the fate of the
canonical generators, and the move ordering of the genus-bound proof.

``_MOVES`` has one row per move kind: its rewrite, the ids it takes,
its Euler characteristic (``CHI`` is read off the rows) and its phase
letters.  Reidemeister kinds are bidirectional: giving ``edges``
inserts the pattern, giving ``crossings`` removes it.  ``_apply``
checks a move's id counts against the row and its ids against the
diagram, so a rewrite checks only its pattern.

One replay generator, ``_replay``, applies the moves and carries a tag
per edge through saddles, inserted edges and births: ``validate_movie``
tags edges with the surface sheet they sweep, ``generator_fate`` with a
generator label.  A removal (``diagram.erase_crossings``) keeps the id
and the component of every edge that survives it, so only insertions
report new edges, and ``births`` holds the circles of H0 moves only.
``validate_movie`` builds the ``Ledger`` in that one pass: the sheets
are a list-backed union-find, the sheets H0 moves start a list, and
each move's phase letter comes from its row.  The move-order check and
the slice certificates read the ledger, so one replay serves a whole
report.  They return plain values: ``check_lobb_order`` None or the
index of the first out-of-order move, ``slice_certificate`` the dict
that ``movie --json`` prints.

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
    EmptyStart,
    InapplicableMove,
    InconsistentDiagram,
    InputError,
    NotEndingInUnlink,
)

@dataclass(frozen=True)
class Move:
    kind: str
    edges: tuple = ()
    crossings: tuple = ()
    comment: str = ""

    def __post_init__(self):
        if self.kind not in _MOVES:
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


def _cut(crossings, loops, e, f):
    """Cut edge ``e`` open to insert crossings into it.  Returns the
    crossings and loops without ``e``'s head, and the id of the edge that
    must now run into it: ``e`` itself if it is a loop, which then closes
    on itself, else ``f``, which takes over the crossing ``e`` entered."""
    if e in loops:
        return crossings, tuple(x for x in loops if x != e), e
    return tuple(_swap_incoming(x, e, f) for x in crossings), loops, f


def _r1(d, m, info):
    sign = 1 if m.kind == "R1+" else -1
    if m.edges:
        (e,) = m.edges
        f, g = _fresh(d, 2)
        crossings, loops, f = _cut(d.crossings, d.loops, e, f)
        x = Crossing(e, f, g, g, 1) if sign > 0 else Crossing(e, g, g, f, -1)
        info["inherit"].update(dict.fromkeys((f, g), e))
        return LinkDiagram(crossings + (x,), loops)
    (k,) = m.crossings
    x = d.crossings[k]
    if x.sign != sign:
        raise InapplicableMove(f"crossing {k} has the wrong sign for {m.kind}")
    if not {x.a, x.over_in} & {x.c, x.over_out}:
        raise InapplicableMove(f"crossing {k} is not a kink")
    return LinkDiagram(*dg.erase_crossings(d, [k]))


def _r2(d, m, info):
    if m.edges:
        e_a, e_b = m.edges
        if e_a == e_b:
            raise InapplicableMove("R2 insertion needs two distinct edges")
        m_a, m_b, f_a, f_b = _fresh(d, 4)
        crossings, loops, f_a = _cut(d.crossings, d.loops, e_a, f_a)
        crossings, loops, f_b = _cut(crossings, loops, e_b, f_b)
        info["inherit"].update({f_a: e_a, f_b: e_b, m_a: e_a, m_b: e_b})
        # strand A passes over strand B twice, with cancelling signs
        x1 = Crossing(e_b, m_a, m_b, e_a, 1)
        x2 = Crossing(m_b, m_a, f_b, f_a, -1)
        return LinkDiagram(crossings + (x1, x2), loops)
    k1, k2 = m.crossings
    if k1 == k2:
        raise InapplicableMove("R2 removal needs two distinct crossings")
    x1, x2 = d.crossings[k1], d.crossings[k2]
    if x1.sign + x2.sign != 0:
        raise InapplicableMove("R2 removal needs cancelling signs")
    # a bigon: the over-strand runs from p to q, and the under-strand
    # from p to q (parallel) or from q to p (anti-parallel)
    bigons = [(p, q) for p, q in ((k1, k2), (k2, k1))
              if d.crossings[p].over_out == d.crossings[q].over_in]
    if not bigons or not (x1.c == x2.a or x2.c == x1.a):
        raise InapplicableMove("crossings do not bound an R2 bigon")
    # listing p first names a strand left as a free circle by its
    # edge into the bigon
    return LinkDiagram(*dg.erase_crossings(d, bigons[0]))


def _r3(d, m, info):
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
    for k, ends in new_ends.items():
        if len(ends) != 2:
            raise InapplicableMove(
                f"both triangle edges at crossing {k} lie on one strand level")

    crossings = list(d.crossings)
    for k in (k1, k2, k3):
        x = xs[k]
        u_in, u_out = new_ends[k]["under"]
        o_in, o_out = new_ends[k]["over"]
        crossings[k] = _crossing_from_strands(u_in, u_out, o_in, o_out, x.sign)
    return LinkDiagram(crossings, d.loops)


def _h0(d, m, info):
    new = _fresh(d, 1)[0]
    info["births"].append(new)
    return LinkDiagram(d.crossings, d.loops + (new,))


def _h1(d, m, info):
    e1, e2 = m.edges
    d2 = dg.splice_edges(d, e1, e2)
    info["spliced"] = (e1, e2)
    for e in set(d2.loops) - set(d.loops):
        info["inherit"][e] = e1
    return d2


def _h2(d, m, info):
    (e,) = m.edges
    if e not in d.loops:
        raise InapplicableMove(
            f"edge {e} is not a crossing-free circle disjoint from the rest")
    return LinkDiagram(d.crossings, tuple(x for x in d.loops if x != e))


# kind -> (rewrite, the (edge count, crossing count) shapes it takes,
# Euler characteristic, phase letters): a move's phase is the first
# letter unless it leaves fewer components than it found, so an H1 that
# fuses is U and one that splits is I
_MOVES = {
    "R1+": (_r1, ((1, 0), (0, 1)), 0, "RR"),
    "R1-": (_r1, ((1, 0), (0, 1)), 0, "RR"),
    "R2": (_r2, ((2, 0), (0, 2)), 0, "RR"),
    "R3": (_r3, ((0, 3),), 0, "RR"),
    "H0": (_h0, ((0, 0),), 1, "OO"),
    "H1": (_h1, ((2, 0),), -1, "IU"),
    "H2": (_h2, ((1, 0),), 1, "TT"),
}
CHI = {kind: row[2] for kind, row in _MOVES.items()}


def _shape_text(edges, crossings):
    n, noun = (edges, "edge") if edges else (crossings, "crossing")
    return f"{n} {noun}{'s' * (n > 1)}" if n else "no edges and no crossings"


def _apply(d, m):
    """Returns (new diagram, info) where info records edge genealogy:
    ``inherit`` maps each new edge to the edge it grew from, ``births``
    lists the circle an H0 creates, ``spliced`` holds H1 arcs.  A removal
    reports nothing: every edge that survives it keeps its id and its
    component."""
    rewrite, shapes = _MOVES[m.kind][:2]
    if (len(m.edges), len(m.crossings)) not in shapes:
        raise InapplicableMove(
            f"{m.kind} takes {' or '.join(_shape_text(*s) for s in shapes)}")
    for e in m.edges:
        if e not in d.successor:
            raise InapplicableMove(f"no edge {e}")
    for k in m.crossings:
        if not 0 <= k < d.n_crossings:
            raise InapplicableMove(f"no crossing {k}")
    info = {"inherit": {}, "births": [], "spliced": None}
    return rewrite(d, m, info), info


def apply_move(d, m):
    """The diagram after one move; raises InapplicableMove on a bad move.

    The result is not checked for planarity: an R2 can give a PD that no
    plane drawing has.  Replay checks every frame."""
    return _apply(d, m)[0]


# -- replay and bookkeeping ---------------------------------------------------


def _replay(movie, tag, born):
    """Apply the moves of ``movie`` in order, carrying a tag per edge.

    ``tag`` maps every edge of the start diagram to a tag and is updated
    in place: after a saddle every edge of the joined components carries
    the first arc's tag, an inserted edge takes the tag of the edge it
    grew from, and an H0 circle without a tag gets ``born()``.  Yields
    (move, the diagram before it, the diagram after it, the pair of tags
    the saddle joined or None).  An inapplicable move, one on an unknown
    edge, or one that leaves a frame that is not planar raises
    InapplicableMove with its index.
    """
    d = movie.start
    for i, m in enumerate(movie.moves):
        try:
            d2, info = _apply(d, m)
            d2.check_planar()
        except (InapplicableMove, InconsistentDiagram) as exc:
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
                tag[e] = born()
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
        must be fused into the rest before the end of the movie.  It
        never applies to a movie ending in the empty link, whose s_n is
        undefined.  A movie from the empty link to a nonempty one holds a
        0-handle that no start circle absorbs, so it never applies either.
        """
        return {
            "theorem": "cobordism inequality",
            "chi": self.chi,
            "inequality": (f"s_n(start) - (n-1)*({self.chi}) >= s_n(end)"
                           " for all n >= 2"),
            "applies": self.h0_absorbed and self.end.n_components > 0,
        }


def validate_movie(movie):
    """Replay a movie; returns the Ledger or raises InapplicableMove
    with the index of the offending move."""
    # worldsheet bookkeeping: each link component sweeps out a sheet,
    # tagged on its edges; saddles glue sheets, births start new ones
    components = movie.start.components
    parent = list(range(len(components)))    # sheet -> parent sheet
    births = []                              # the sheets H0 moves start

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def born():
        births.append(len(parent))
        parent.append(len(parent))
        return births[-1]

    sheet = {e: s for s, comp in enumerate(components) for e in comp}
    frames = [movie.start]
    kinds = []
    for m, d, d2, joined in _replay(movie, sheet, born):
        if joined:
            parent[find(joined[0])] = find(joined[1])
        kinds.append(_MOVES[m.kind][3][d2.n_components < d.n_components])
        frames.append(d2)

    start_roots = {find(s) for s in range(len(components))}
    return Ledger(chi=sum(CHI[m.kind] for m in movie.moves), end=frames[-1],
                  frames=frames, kinds=kinds,
                  k=len({find(s) for s in range(len(parent))}),
                  h0_absorbed=all(find(s) in start_roots for s in births))


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
    for _, _, d, joined in _replay(movie, label, lambda: birth_label):
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
    dict ``movie --json`` prints.  A movie from the empty link bounds
    nothing, since s_n of the empty link is undefined."""
    if not ledger.frames[0].n_components:
        raise EmptyStart("slice certificates need a movie from a nonempty "
                         "link")
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

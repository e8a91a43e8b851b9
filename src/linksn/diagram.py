"""Oriented link diagrams and the diagram-level combinatorics.

A diagram is stored as a list of PD-style crossings plus a list of
crossing-free circles ("loops").  Each crossing is a 4-tuple of edge
identifiers (a, b, c, d), listed counterclockwise starting from the
incoming under-strand, together with an explicit sign:

    * the under-strand runs a -> c at every crossing;
    * at a positive crossing the over-strand runs d -> b;
    * at a negative crossing the over-strand runs b -> d.

Signs are inferred once at parse time and stored; nothing downstream
recomputes them.
"""

import itertools
import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IndexOutOfRange,
    InconsistentDiagram,
    MalformedPD,
)


@dataclass(frozen=True)
class Crossing:
    a: int
    b: int
    c: int
    d: int
    sign: int

    @property
    def edges(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def over_in(self):
        return self.d if self.sign > 0 else self.b

    @property
    def over_out(self):
        return self.b if self.sign > 0 else self.d


def _crossing_from_strands(under_in, under_out, over_in, over_out, sign):
    """Assemble the counterclockwise PD tuple from strand data."""
    if sign > 0:
        return Crossing(under_in, over_out, under_out, over_in, 1)
    return Crossing(under_in, over_in, under_out, over_out, -1)


class LinkDiagram:
    """An oriented link diagram.

    Parameters
    ----------
    crossings : iterable of Crossing
    loops : iterable of int
        Edge ids of crossing-free circle components.
    """

    def __init__(self, crossings=(), loops=()):
        self.crossings = tuple(crossings)
        self.loops = tuple(loops)
        self._validate()

    # -- construction-time checks ------------------------------------

    def _validate(self):
        incoming = {}
        outgoing = {}
        for k, x in enumerate(self.crossings):
            if x.sign not in (1, -1):
                raise InconsistentDiagram(f"crossing {k} has sign {x.sign}")
            for e, table in ((x.a, incoming), (x.over_in, incoming),
                             (x.c, outgoing), (x.over_out, outgoing)):
                if e in table:
                    raise InconsistentDiagram(
                        f"edge {e} occurs twice in the same role")
                table[e] = k
        if set(incoming) != set(outgoing):
            bad = set(incoming) ^ set(outgoing)
            raise InconsistentDiagram(f"open strands at edges {sorted(bad)}")
        if set(self.loops) & set(incoming):
            raise InconsistentDiagram("loop edge id collides with a crossing edge")
        if len(set(self.loops)) != len(self.loops):
            raise InconsistentDiagram("duplicate loop edge id")

    def check_planar(self):
        """Raise InconsistentDiagram unless the PD is drawn in the plane.

        Slot 4j + k is position k of crossing j.  The faces of the
        crossings' 4-valent graph are the orbits of "cross the edge in
        slot k to its other end, then turn to the next slot
        counterclockwise".  A connected piece of c crossings and 2c edges
        drawn on a surface of genus g has c + 2 - 2g faces, so the PD is
        planar exactly when it has c + 2 faces per piece in total.
        """
        other = self._other_slot
        pieces = self.n_pieces - len(self.loops)
        faces = 0
        seen = [False] * len(other)
        for s in range(len(other)):
            if seen[s]:
                continue
            faces += 1
            while not seen[s]:
                seen[s] = True
                s = other[s]
                s += 1 if s % 4 < 3 else -3    # the next slot of its crossing
        if faces != self.n_crossings + 2 * pieces:
            raise InconsistentDiagram(
                f"PD is not planar: {faces} faces for {self.n_crossings} "
                f"crossings in {pieces} connected pieces, where Euler's "
                f"formula needs {self.n_crossings + 2 * pieces}")

    @cached_property
    def n_pieces(self):
        """The split pieces of the diagram: its pieces of crossings joined
        by edges, found by union-find, and its crossing-free loops."""
        other = self._other_slot
        root = list(range(self.n_crossings))

        def find(j):
            while root[j] != j:
                root[j] = root[root[j]]
                j = root[j]
            return j

        for s, s2 in enumerate(other):
            root[find(s // 4)] = find(s2 // 4)
        return (sum(root[j] == j for j in range(self.n_crossings))
                + len(self.loops))

    # -- basic attributes ---------------------------------------------

    @property
    def n_crossings(self):
        return len(self.crossings)

    @cached_property
    def edges(self):
        seen = set(self.loops)
        for x in self.crossings:
            seen.update(x.edges)
        return tuple(sorted(seen))

    @cached_property
    def writhe(self):
        return sum(x.sign for x in self.crossings)

    @cached_property
    def n_minus(self):
        """The number of negative crossings."""
        return sum(x.sign < 0 for x in self.crossings)

    @property
    def is_positive(self):
        return all(x.sign > 0 for x in self.crossings)

    @cached_property
    def successor(self):
        """Map each edge to the next edge along its strand."""
        succ = {}
        for x in self.crossings:
            succ[x.a] = x.c
            succ[x.over_in] = x.over_out
        for e in self.loops:
            succ[e] = e
        return succ

    @cached_property
    def components(self):
        """Edge partition into cyclically ordered strands, one per component.

        Components are sorted by their smallest edge id; each is listed
        starting from its smallest edge.
        """
        succ = self.successor
        seen = set()
        comps = []
        for start in sorted(succ):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            e = succ[start]
            while e != start:
                cycle.append(e)
                seen.add(e)
                e = succ[e]
            comps.append(tuple(cycle))
        return tuple(comps)

    @property
    def n_components(self):
        return len(self.components)

    @cached_property
    def edge_component(self):
        return {e: i for i, comp in enumerate(self.components) for e in comp}

    # -- resolutions ---------------------------------------------------

    @cached_property
    def slot_edges(self):
        """Slot 4j + k is position k of crossing j: the index in ``edges``
        of the edge in each slot."""
        index = {e: i for i, e in enumerate(self.edges)}
        return [index[e] for x in self.crossings for e in x.edges]

    @cached_property
    def _other_slot(self):
        """Slot -> the slot at the other end of its edge."""
        other = [0] * (4 * self.n_crossings)
        first = {}
        for s, e in enumerate(e for x in self.crossings for e in x.edges):
            if e in first:
                other[s], other[first[e]] = first[e], s
            else:
                first[e] = s
        return other

    @cached_property
    def _walk(self):
        """Per edge index, one of its slots (None for a loop); and per
        smoothing t, the step from slot s: across crossing s // 4 to the
        slot that smoothing t pairs with s, then along that slot's edge to
        its other end.  Smoothing 0 pairs edges (a, b) and (c, d), slots
        s ^ 1; smoothing 1 pairs (a, d) and (b, c), slots s ^ 3."""
        other = self._other_slot
        slot_of = [None] * len(self.edges)
        for s, e in enumerate(self.slot_edges):
            slot_of[e] = s
        steps = tuple([other[s ^ flip] for s in range(len(other))]
                      for flip in (1, 3))
        return slot_of, steps

    def circle_labels(self, t_mask):
        """Circles of the resolution with per-crossing smoothings ``t_mask``,
        as one label per edge.

        Bit i of ``t_mask`` picks the smoothing of crossing i; 0 is the
        oriented smoothing.  Entry i of the result is the circle of
        ``edges[i]``, with circles numbered by their smallest edge.  Each
        circle is one walk from its smallest unlabeled edge, from slot to
        slot across the smoothings, until it returns.
        """
        slot_of, steps = self._walk
        edge_of = self.slot_edges
        labels = [-1] * len(slot_of)
        k = 0
        for e, start in enumerate(slot_of):
            if labels[e] >= 0:
                continue
            labels[e] = k
            if start is not None:
                s = steps[(t_mask >> (start >> 2)) & 1][start]
                while s != start:
                    labels[edge_of[s]] = k
                    s = steps[(t_mask >> (s >> 2)) & 1][s]
            k += 1
        return tuple(labels)

    def circles(self, t_mask):
        """The circles of ``circle_labels(t_mask)`` as a tuple of
        frozensets of edges, sorted by smallest edge."""
        labels = self.circle_labels(t_mask)
        groups = [[] for _ in range(max(labels, default=-1) + 1)]
        for e, k in zip(self.edges, labels):
            groups[k].append(e)
        return tuple(map(frozenset, groups))

    @cached_property
    def oriented_mask(self):
        """Cube coordinates of the oriented resolution: smoothing 0 at a
        positive crossing, 1 at a negative one."""
        mask = 0
        for i, x in enumerate(self.crossings):
            mask |= (x.sign < 0) << i
        return mask

    @cached_property
    def seifert_circles(self):
        return self.circles(self.oriented_mask)

    @cached_property
    def component_seifert(self):
        """Per component, in the order of ``components``: (c, positive, r)
        of its own diagram, ``sublink(self, [i])``, that is its
        self-crossings, whether they are all positive, and its Seifert
        circles.

        One walk over the edges gives them all: at a crossing of two
        components the strand runs straight on, as if the other strand
        were erased, and at a self-crossing it takes the oriented
        smoothing, from each incoming edge to the other strand's
        outgoing edge.  Either way it stays on its component, so each
        circle walked is a Seifert circle of one component's diagram."""
        comp = self.edge_component
        l = len(self.components)
        crossings, positive = [0] * l, [True] * l
        step = dict(self.successor)     # straight on at every crossing
        for x in self.crossings:
            i = comp[x.a]
            if comp[x.over_in] == i:
                step[x.a], step[x.over_in] = x.over_out, x.c
                crossings[i] += 1
                positive[i] = positive[i] and x.sign > 0
        circles = [0] * l
        seen = set()
        for e in step:
            if e not in seen:
                circles[comp[e]] += 1
                while e not in seen:
                    seen.add(e)
                    e = step[e]
        return tuple(zip(crossings, positive, circles))

    # -- renumbering ----------------------------------------------------

    def canonical(self):
        """Relabel edges 1..2N consecutively along each component, with
        the crossing-free loops numbered last, where ``parse_pd`` puts
        ``U``."""
        free = set(self.loops)
        relabel = {}
        for comp in sorted(self.components, key=lambda c: c[0] in free):
            for e in comp:
                relabel[e] = len(relabel) + 1
        crossings = sorted(
            (Crossing(relabel[x.a], relabel[x.b], relabel[x.c], relabel[x.d], x.sign)
             for x in self.crossings),
            key=lambda x: x.edges)
        loops = sorted(relabel[e] for e in self.loops)
        return LinkDiagram(crossings, loops)

    def __repr__(self):
        return (f"LinkDiagram({self.n_crossings} crossings, "
                f"{self.n_components} components, w={self.writhe})")


# -- parsing -----------------------------------------------------------


def parse_pd(text):
    """Parse PD notation: ``X[a,b,c,d]`` tuples, counterclockwise from the
    incoming under-strand, plus bare ``U`` tokens for crossing-free circles.

    Orientation and crossing signs are inferred from the edge numbering,
    which must increase along each component (wrapping from the largest
    edge of a component back to its smallest).  ``Xp[...]``/``Xm[...]``
    declare the sign explicitly, for the rare numberings (two-edge
    components) where the inference is ambiguous.
    """
    tuples = []
    n_loops = 0
    pattern = re.compile(r"X([pm]?)\[([^\]\[]*)\]|U|(\S)")
    for m in pattern.finditer(text.replace(",", " ")):
        if m.group(3) is not None:
            raise MalformedPD(f"unrecognized input near {text[m.start():m.start()+12]!r}")
        if m.group(0) == "U":
            n_loops += 1
            continue
        parts = m.group(2).split()
        if len(parts) != 4:
            raise MalformedPD(f"crossing {text[m.start():m.end()]!r} does "
                              f"not have 4 entries")
        try:
            edges = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedPD(f"non-integer edge in "
                              f"{text[m.start():m.end()]!r}") from exc
        tuples.append((edges, {"": None, "p": 1, "m": -1}[m.group(1)]))

    crossings = []
    for (a, b, c, d), sign in tuples:
        if sign is None:
            sign = _infer_sign(b, d)
        crossings.append(Crossing(a, b, c, d, sign))
    edge_max = max((e for x in crossings for e in x.edges), default=0)
    loops = tuple(range(edge_max + 1, edge_max + 1 + n_loops))
    d = LinkDiagram(crossings, loops)
    d.check_planar()
    return d


def _infer_sign(b, d):
    """Crossing sign from the over-strand slots of a PD tuple.

    The over-strand enters at the slot whose edge id precedes the other
    along the strand: adjacent ids run small -> large, non-adjacent ids
    wrap large -> small.  Entering at d makes the crossing positive.
    """
    if b == d:
        raise MalformedPD("over-strand uses the same edge twice")
    if abs(b - d) == 1:
        over_in = min(b, d)
    else:
        over_in = max(b, d)
    return 1 if over_in == d else -1


def serialize_pd(diagram):
    """Canonical PD text, with a sign tag where the edge ids do not imply
    the sign; ``parse_pd`` of the result is the same diagram."""
    toks = []
    for x in diagram.canonical().crossings:
        if _infer_sign(x.b, x.d) == x.sign:
            toks.append(f"X[{x.a},{x.b},{x.c},{x.d}]")
        else:
            tag = "p" if x.sign > 0 else "m"
            toks.append(f"X{tag}[{x.a},{x.b},{x.c},{x.d}]")
    toks.extend("U" for _ in diagram.loops)
    return " ".join(toks)


def to_json(diagram):
    """Stable JSON form: crossing tuples with signs, loops, components."""
    canon = diagram.canonical()
    return json.dumps({
        "crossings": [[x.a, x.b, x.c, x.d] for x in canon.crossings],
        "signs": [x.sign for x in canon.crossings],
        "loops": len(canon.loops),
        "components": [list(c) for c in canon.components],
    }, sort_keys=False)


def from_json(text):
    data = json.loads(text)
    crossings = [Crossing(a, b, c, d, s)
                 for (a, b, c, d), s in zip(data["crossings"], data["signs"])]
    edge_max = max((e for x in crossings for e in x.edges), default=0)
    loops = range(edge_max + 1, edge_max + 1 + data.get("loops", 0))
    d = LinkDiagram(crossings, loops)
    d.check_planar()
    return d


# -- standard families ---------------------------------------------------


def parse_braid(word, strands):
    """Closure of a braid word.

    Entry ``k`` is the generator sigma_k (strand at position k passes over
    position k+1, a positive crossing); ``-k`` its inverse.
    """
    from .errors import GeneratorOutOfRange

    if strands < 1:
        raise GeneratorOutOfRange("need at least one strand")
    if strands > sys.maxsize:
        raise GeneratorOutOfRange(f"more than {sys.maxsize} strands")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise GeneratorOutOfRange(
                f"generator {g} invalid for {strands} strands")

    fresh = itertools.count(1)
    current = [None] * strands   # edge entering position i from above
    seeds = [None] * strands     # first edge ever seen at position i

    def edge_at(i):
        if current[i] is None:
            current[i] = seeds[i] = next(fresh)
        return current[i]

    raw = []  # (under_in, under_out, over_in, over_out, sign)
    for g in word:
        i = abs(g) - 1
        u, v = edge_at(i), edge_at(i + 1)
        nu, nv = next(fresh), next(fresh)
        if g > 0:
            # position i passes over; the under-strand comes from i+1
            raw.append((v, nv, u, nu, 1))
        else:
            raw.append((u, nu, v, nv, -1))
        current[i], current[i + 1] = nv, nu

    # Closure: identify the bottom edge of each position with its seed.
    alias = {}
    loops = []
    for i in range(strands):
        if seeds[i] is None:
            loops.append(next(fresh))
        else:
            alias[current[i]] = seeds[i]

    def res(e):
        return alias.get(e, e)

    crossings = [
        _crossing_from_strands(res(ui), res(uo), res(oi), res(oo), sign)
        for ui, uo, oi, oo, sign in raw]
    return LinkDiagram(crossings, loops).canonical()


def torus_link(p, q):
    """Standard diagram of the (p, q) torus link: closure of
    (sigma_1 ... sigma_{p-1})^q on p strands."""
    if p < 1 or q < 1:
        raise IndexOutOfRange("torus link parameters must be positive")
    if (p - 1) * q > sys.maxsize:
        raise IndexOutOfRange(f"T(p, q) has (p - 1) q crossings, more than "
                              f"{sys.maxsize}")
    word = list(range(1, p)) * q
    return parse_braid(word, p)


# -- diagram operations ---------------------------------------------------


def mirror(diagram):
    """Flip every crossing; the writhe changes sign."""
    return LinkDiagram([_flip(x) for x in diagram.crossings], diagram.loops)


def _flip(x):
    # Exchanging over- and under-strand keeps orientations; the new PD
    # tuple is read counterclockwise from the old over-strand entry.
    if x.sign > 0:
        return Crossing(x.d, x.a, x.b, x.c, -1)
    return Crossing(x.b, x.c, x.d, x.a, 1)


def crossing_change(diagram, k):
    """Flip the sign of crossing ``k`` (0-based)."""
    if not 0 <= k < diagram.n_crossings:
        raise IndexOutOfRange(f"no crossing {k}")
    crossings = list(diagram.crossings)
    crossings[k] = _flip(crossings[k])
    return LinkDiagram(crossings, diagram.loops)


def disjoint_union(d1, d2):
    """Place two diagrams side by side, relabeling the second."""
    offset = max(d1.edges, default=0)
    crossings = list(d1.crossings) + [
        Crossing(x.a + offset, x.b + offset, x.c + offset, x.d + offset, x.sign)
        for x in d2.crossings]
    loops = list(d1.loops) + [e + offset for e in d2.loops]
    return LinkDiagram(crossings, loops)


def splice_edges(diagram, e1, e2):
    """Reroute two strands by swapping where edges e1, e2 arrive.

    This is the oriented band/saddle primitive: it merges two components
    or splits one, depending on whether e1 and e2 lie on the same
    component.  Loop edges are handled as degenerate strands.
    """
    if e1 not in diagram.successor or e2 not in diagram.successor:
        raise IndexOutOfRange(f"unknown edge in splice ({e1}, {e2})")
    loops = set(diagram.loops)
    if e1 == e2:
        # pinching a strand (or circle) splits off a crossing-free circle
        new = max(diagram.edges) + 1
        return LinkDiagram(diagram.crossings, diagram.loops + (new,))
    if e1 in loops and e2 in loops:
        return LinkDiagram(diagram.crossings,
                           tuple(e for e in diagram.loops if e != e2))
    if e1 in loops or e2 in loops:
        gone = e1 if e1 in loops else e2
        return LinkDiagram(diagram.crossings,
                           tuple(e for e in diagram.loops if e != gone))
    crossings = [_swap_incoming(x, e1, e2) for x in diagram.crossings]
    return LinkDiagram(crossings, diagram.loops)


def _swap_incoming(x, e1, e2):
    """Swap e1 <-> e2 in the incoming slots (a and over-in) of a crossing."""
    trade = {e1: e2, e2: e1}
    a, b, c, d = x.a, x.b, x.c, x.d
    if a in trade:
        a = trade[a]
    if x.sign > 0:
        if d in trade:
            d = trade[d]
    else:
        if b in trade:
            b = trade[b]
    return Crossing(a, b, c, d, x.sign)


def connect_sum(d1, i1, d2, i2):
    """Connected sum joining component ``i1`` of d1 to component ``i2`` of d2.

    The band is attached at the smallest edge of each named component
    so the operation is reproducible; the invariant values do not depend
    on the choice of arcs.
    """
    if not 0 <= i1 < d1.n_components:
        raise IndexOutOfRange(f"component {i1} of first summand")
    if not 0 <= i2 < d2.n_components:
        raise IndexOutOfRange(f"component {i2} of second summand")
    offset = max(d1.edges, default=0)
    union = disjoint_union(d1, d2)
    e1 = min(d1.components[i1])
    e2 = min(d2.components[i2]) + offset
    return splice_edges(union, e1, e2)


def erase_crossings(diagram, gone):
    """(crossings, loops) of the diagram without the crossings at the
    indices listed in ``gone``, each strand rejoined across them.

    One walk per component: a run of edges from one remaining crossing to
    the next keeps the id of its first edge.  A component left with no
    crossing becomes a crossing-free loop that keeps the id of its edge
    into the first crossing of ``gone`` it passes (the smaller id if it
    passes that crossing twice), and the diagram's loops stay.  Every id
    that survives stays on its component.
    """
    rank = {e: (i, e) for i, k in enumerate(gone)
            for e in (diagram.crossings[k].a, diagram.crossings[k].over_in)}
    gone = set(gone)
    kept = [x for k, x in enumerate(diagram.crossings) if k not in gone]
    starts = {e for x in kept for e in (x.c, x.over_out)}
    run = {}
    loops = []
    for comp in diagram.components:
        # the run through the component's first edge starts at its last start
        head = next((e for e in reversed(comp) if e in starts), None)
        if head is None:
            loops.append(min(comp, key=rank.get))
            continue
        for e in comp:
            if e in starts:
                head = e
            run[e] = head
    return [Crossing(run[x.a], run[x.b], run[x.c], run[x.d], x.sign)
            for x in kept], loops


def sublink(diagram, keep):
    """The diagram of the components with indices in ``keep``.

    Every crossing that touches a discarded component is erased and the
    kept strands are rejoined across the gaps; kept components that lose
    all their crossings become free loops.
    """
    keep = set(keep)
    for i in keep:
        if not 0 <= i < diagram.n_components:
            raise IndexOutOfRange(f"no component {i}")
    comp = diagram.edge_component
    crossings, loops = erase_crossings(diagram, [
        k for k, x in enumerate(diagram.crossings)
        if comp[x.a] not in keep or comp[x.over_in] not in keep])
    return LinkDiagram(crossings, [e for e in loops if comp[e] in keep]
                       ).canonical()


def unlink(m):
    """The m-component unlink as m crossing-free circles."""
    return LinkDiagram((), range(1, m + 1))


def unknot():
    return unlink(1)

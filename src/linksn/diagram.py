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

    def smoothing(self, t):
        """Edge pairings of the two smoothings, indexed by the cube
        coordinate t.  The oriented smoothing is t=0 for a positive
        crossing and t=1 for a negative one."""
        if t == 0:
            return ((self.a, self.b), (self.c, self.d))
        return ((self.a, self.d), (self.b, self.c))

    @property
    def oriented_t(self):
        return 0 if self.sign > 0 else 1


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
        other = [0] * (4 * self.n_crossings)   # slot -> the edge's other end
        root = list(range(self.n_crossings))     # crossings joined by edges

        def find(j):
            while root[j] != j:
                root[j] = root[root[j]]
                j = root[j]
            return j

        first = {}
        for s, e in enumerate(e for x in self.crossings for e in x.edges):
            if e not in first:
                first[e] = s
                continue
            other[s], other[first[e]] = first[e], s
            root[find(s // 4)] = find(first[e] // 4)
        pieces = sum(root[j] == j for j in range(self.n_crossings))
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

    def circles(self, t_mask):
        """Circles of the resolution with per-crossing smoothings ``t_mask``.

        Bit i of ``t_mask`` picks the smoothing of crossing i; 0 is the
        oriented smoothing.  Returns a tuple of frozensets of edges,
        sorted by smallest edge.
        """
        parent = {e: e for e in self.edges}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for i, x in enumerate(self.crossings):
            for u, v in x.smoothing((t_mask >> i) & 1):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        groups = {}
        for e in self.edges:
            groups.setdefault(find(e), set()).add(e)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))

    @cached_property
    def oriented_mask(self):
        """Cube coordinates of the oriented resolution."""
        mask = 0
        for i, x in enumerate(self.crossings):
            mask |= x.oriented_t << i
        return mask

    @cached_property
    def seifert_circles(self):
        return self.circles(self.oriented_mask)

    def linking_number(self, i, j):
        """Linking number of components i and j (half the signed crossings)."""
        comp = self.edge_component
        total = 0
        for x in self.crossings:
            pair = {comp[x.a], comp[x.over_in]}
            if pair == {i, j}:
                total += x.sign
        if total % 2:
            raise InconsistentDiagram("odd signed crossing count between components")
        return total // 2

    def is_pairwise_unlinked(self):
        l = self.n_components
        return all(self.linking_number(i, j) == 0
                   for i in range(l) for j in range(i + 1, l))

    # -- renumbering and equality ---------------------------------------

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

    def same_diagram(self, other):
        a, b = self.canonical(), other.canonical()
        return a.crossings == b.crossings and a.loops == b.loops

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
            raise MalformedPD(f"crossing X[{m.group(2)}] does not have 4 entries")
        try:
            edges = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedPD(f"non-integer edge in X[{m.group(2)}]") from exc
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


def sublink(diagram, keep):
    """The diagram of the components with indices in ``keep``.

    Crossings of a kept strand with a discarded one are erased and the
    kept strand is rejoined across the gap; kept components that lose
    all their crossings become free loops.
    """
    keep = set(keep)
    for i in keep:
        if not 0 <= i < diagram.n_components:
            raise IndexOutOfRange(f"no component {i}")
    comp = diagram.edge_component
    kept = []
    rename = {}

    def canon(e):
        seen = set()
        while e in rename and e not in seen:
            seen.add(e)
            e = rename[e]
        return min(seen | {e}) if e in seen else e

    for x in diagram.crossings:
        under_kept = comp[x.a] in keep
        over_kept = comp[x.over_in] in keep
        if under_kept and over_kept:
            kept.append(x)
        else:
            if under_kept:
                rename[x.c] = x.a
            if over_kept:
                rename[x.over_out] = x.over_in
    crossings = [Crossing(canon(x.a), canon(x.b), canon(x.c), canon(x.d),
                          x.sign) for x in kept]
    used = {e for x in crossings for e in x.edges}
    loops = []
    for i in sorted(keep):
        rep = canon(diagram.components[i][0])
        if rep not in used and all(canon(e) not in used
                                   for e in diagram.components[i]):
            loops.append(rep)
    return LinkDiagram(crossings, loops).canonical()


def unlink(m):
    """The m-component unlink as m crossing-free circles."""
    return LinkDiagram((), range(1, m + 1))


def unknot():
    return unlink(1)

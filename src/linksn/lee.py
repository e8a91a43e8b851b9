"""The n=2 perturbed filtered chain complex of a link diagram.

The cube of resolutions is indexed by per-crossing coordinates
t in {0,1}^N, where t=0 denotes the smoothing pairing (a,b),(c,d) of
the PD tuple; the oriented resolution is t_i = 0 at positive crossings
and t_i = 1 at negative ones, and every differential edge raises one
t_i from 0 to 1.

Each circle of a resolution carries the algebra Q[x]/(x^2 - 1) with

    m: 1*1 -> 1,  1*x -> x,  x*x -> 1
    D: 1 -> 1(x)x + x(x)1,  x -> x(x)x + 1(x)1

and basis elements are monomials with a 0/1 exponent per circle.  The
gradings are h = |t| - N_minus and q = 2*deg - r_t - w - h; the
differential preserves q or drops it by 4.

``qgr`` is the persistence column reduction (Edelsbrunner, Letscher and
Zomorodian 2002; the filtered view of ``s`` in Rasmussen, math/0402131),
asked from the top down.  Since d keeps q or drops it by 4, the map
from degree -1 to degree 0 splits into two blocks by q mod 4.  The cut
of a block at level L keeps its degree-0 rows with q >= L, numbered from
the highest q down, and eliminates its degree -1 boundaries projected
onto them.  If a cycle's part in the block leaves a nonzero residue, the
q of its leading term is that part's filtration level; if not, the level
lies below L and the next cut is 4 lower.  A cycle's level is the higher
of its parts' levels.  The pivots above a cut are those of the full
elimination, so the answer is the same, but no cut reads a row or a
boundary below it or outside its block, and it skips the sources that
degree -2 boundaries show to reduce to zero (``_cleared``: one level of
the clearing of Chen and Kerber 2011, with no degree -2 reduction).
The deepest cut tried in each block is cached on the complex and shared
by every question asked of it.

The canonical chain g (Lee; Rasmussen, math/0402131) is built in one
place, ``canonical_cycle``: a product over the Seifert circles at the
oriented resolution, where q = q0 + 2|s| for the subset s of circles
carrying x.  So the parity pieces h_0 and h_1 of g are its parts in the
two q mod 4 blocks, read off g, and ``s2`` is qgr(g) - 1.

``s2`` reads only homological degrees -1 and 0: the level of a degree-0
cycle depends only on the degree -1 boundaries that land in degree 0.
So ``FilteredComplex(diagram)`` builds only the resolutions with
|t| - N_minus in -1..0, their circles and the basis, and a cut makes its
vectors from the edge maps.  ``FilteredComplex(diagram, whole=True)``
builds every degree, for the checks of d^2, the q drop and the homology.
A degree-0 chain is checked to be a cycle on demand, by the edge maps out
of its own resolutions.  ``dim`` counts the generators built.

A resolution's circles are held as labels, ``LinkDiagram.circle_labels``:
entry i is the circle of edge i, circles numbered by their smallest edge,
so a resolution with largest label r - 1 has r circles.  The labels of
every built resolution, and of each neighbour a cycle check visits, are
memoized on the complex, and an edge map reads them at the crossing's
edges and at each source circle's smallest edge.

A build costs the generators it creates, the sum of 2^r over its
r-circle resolutions, so that count, not the crossing count, is held to
``MAX_GENERATORS``, and ``TooLarge`` is raised before any column is
allocated.

The edge maps assume that every smoothing change merges two circles or
splits one, which holds for a planar diagram.  The complex checks that
once, in O(c), with Euler's formula (``LinkDiagram.check_planar``).
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import InconsistentDiagram, NotACycle, TooLarge, ZeroClass

MAX_GENERATORS = 1 << 20   # the generators one build may create


@dataclass
class Cut:
    """The degree -1 boundaries of one q mod 4 block above one level,
    eliminated."""
    level: int                  # the lowest q of a degree-0 row kept
    echelon: object             # linalg.Echelon over the kept rows
    nnz: int                    # nonzeros of the vectors eliminated
    cleared: int                # sources skipped, see _cleared


class FilteredComplex:
    """The complex in homological degrees -1..0, or in every degree if
    ``whole``.

    Both builds answer ``s2``, ``qgr`` and the canonical cycles, whose
    cycle checks apply the differential on demand.  ``columns``, the
    differential between built degrees, is built on first use.  The
    questions that read every degree (``apply_differential``,
    ``check_d_squared``, ``boundary_columns``, ``homology_rank`` and
    ``homology_dimension``) raise ``ValueError`` unless ``whole``.  A
    degree outside the cube is empty, so -1..0 is clipped to the cube.
    """

    def __init__(self, diagram, whole=False):
        diagram.check_planar()
        self.diagram = diagram
        self.whole = whole
        self.n = diagram.n_crossings
        self.writhe = diagram.writhe
        self.n_minus = sum(1 for x in diagram.crossings if x.sign < 0)
        self.degrees = (-self.n_minus, self.n - self.n_minus)  # the cube's
        self.built = self.degrees if whole else (max(-1, -self.n_minus), 0)
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self):
        d = self.diagram
        lo, hi = self.built
        # t -> circle_labels(t), for t built and for the neighbours an
        # on-demand cycle check has visited
        self.labels = {}
        self.start = {}        # t -> first basis index, for t built
        self.basis_t = []      # per basis element
        self.basis_subset = []
        self.basis_h = []
        self.basis_q = []
        self.by_h = {}
        popcounts = range(lo + self.n_minus, hi + self.n_minus + 1)  # |t|
        # every resolution holds at least one generator
        resolutions = sum(math.comb(self.n, k) for k in popcounts)
        if resolutions > MAX_GENERATORS:
            raise TooLarge(f"{_printable(resolutions)} resolutions in "
                           f"degrees {lo}..{hi} exceed the budget of "
                           f"{MAX_GENERATORS} generators")
        # the resolutions built in ascending t, the order of the basis
        masks = sorted(sum(1 << i for i in ones) for k in popcounts
                       for ones in itertools.combinations(range(self.n), k))
        idx = 0
        for t in masks:
            h = t.bit_count() - self.n_minus
            self.labels[t] = labels = d.circle_labels(t)
            r = _count(labels)
            self.start[t] = idx
            size = 1 << r
            if idx + size > MAX_GENERATORS:
                raise TooLarge(f"{_printable(idx + size, 'at least ')} "
                               f"generators in degrees {lo}..{hi} exceed "
                               f"the budget of {MAX_GENERATORS}")
            self.basis_t.extend([t] * size)
            self.basis_subset.extend(range(size))
            self.basis_h.extend([h] * size)
            q0 = -r - self.writhe - h
            self.basis_q.extend([q0 + 2 * s.bit_count() for s in range(size)])
            self.by_h.setdefault(h, []).extend(range(idx, idx + size))
            idx += size
        self.dim = idx
        self._cuts = {}        # q mod 4 -> the deepest Cut tried, see qgr
        self._cuts_tried = 0

    @cached_property
    def columns(self):
        """The differential between built degrees, basis index -> list of
        (row, coeff), built on first use; ``qgr`` never reads it."""
        hi = self.built[1]
        columns = [[] for _ in range(self.dim)]
        for t, first in self.start.items():
            if t.bit_count() - self.n_minus == hi:
                continue
            cols = columns[first:first + (1 << _count(self.labels[t]))]
            for t2, sign, images in self._edge_maps(t):
                offset = self.start[t2]
                for image in images:
                    for col, out in zip(cols, image):
                        col.append((offset + out, sign))
        return columns

    def _whole_differential(self):
        """``columns``, for the questions that read every degree."""
        if not self.whole:
            raise ValueError("this question reads every homological degree; "
                             "build FilteredComplex(diagram, whole=True)")
        return self.columns

    def stats(self):
        """Sizes of what was built, and of the cached ``qgr`` cuts.

        ``nnz`` counts the entries of ``columns`` without building it: an
        edge out of an r-circle resolution has 2^r terms if it merges and
        2^(r+1) if it splits.  ``cut`` lists the levels of the cached
        ``qgr`` cuts, at most one per q mod 4 block, highest first;
        ``cuts_tried`` counts the echelons built so far, ``pivots`` and
        ``cut_nnz`` the cached cuts' rank and the nonzeros of the vectors
        they eliminated, and ``cleared`` the sources they skipped."""
        hi = self.built[1]
        nnz = 0
        for t in self.start:
            if t.bit_count() - self.n_minus == hi:
                continue
            r = _count(self.labels[t])
            for i in range(self.n):
                if not (t >> i) & 1:
                    split = _count(self.labels[t | 1 << i]) > r
                    nnz += 1 << (r + split)
        cuts = self._cuts.values()
        return {
            "degrees": list(self.built),
            "resolutions": len(self.start),
            "dim": self.dim,
            "nnz": nnz,
            "boundary_cols": len(self.by_h.get(-1, ())),
            "cut": sorted((cut.level for cut in cuts), reverse=True),
            "cuts_tried": self._cuts_tried,
            "pivots": sum(cut.echelon.rank for cut in cuts),
            "cut_nnz": sum(cut.nnz for cut in cuts),
            "cleared": sum(cut.cleared for cut in cuts),
        }

    def _edge_maps(self, t):
        """The cube edges out of built resolution t, as (t2, sign, images),
        with the images of ``_edge_map``.  Target labels are memoized."""
        labels = self.labels
        src = labels[t]
        smallest = _smallest(src)
        slot_edges = self.diagram.slot_edges
        for i in range(self.n):
            if not (t >> i) & 1:
                t2 = t | (1 << i)
                if t2 not in labels:
                    labels[t2] = self.diagram.circle_labels(t2)
                sign = -1 if (t & ((1 << i) - 1)).bit_count() & 1 else 1
                yield t2, sign, _edge_map(slot_edges, src, smallest, i,
                                          labels[t2])

    # -- chain-level helpers ----------------------------------------------

    def apply_differential(self, chain):
        columns = self._whole_differential()
        out = {}
        for i, coeff in chain.items():
            for row, c in columns[i]:
                out[row] = out.get(row, 0) + coeff * c
        return {k: v for k, v in out.items() if v}

    def check_d_squared(self):
        return not any(self.apply_differential(dict(col))
                       for col in self._whole_differential())

    def _is_cycle(self, chain):
        """Whether d(chain) = 0.

        d is applied on demand from the edge maps out of the chain's own
        resolutions, so the check needs no column built: it works in
        every built degree, the top one included.
        """
        by_t = {}
        for i, v in chain.items():
            by_t.setdefault(self.basis_t[i], []).append(
                (self.basis_subset[i], v))
        out = {}
        for t, terms in by_t.items():
            for t2, sign, images in self._edge_maps(t):
                for image in images:
                    for subset, v in terms:
                        key = (t2, image[subset])
                        out[key] = out.get(key, 0) + sign * v
        return not any(out.values())

    def boundary_columns(self, h):
        """Images of the basis elements in homological degree h."""
        columns = self._whole_differential()
        return [dict(columns[i]) for i in self.by_h.get(h, [])]

    def homology_rank(self, h):
        dim_h = len(self.by_h.get(h, []))
        rank_out = linalg.rank(self.boundary_columns(h))
        rank_in = linalg.rank(self.boundary_columns(h - 1))
        return dim_h - rank_out - rank_in

    def homology_dimension(self):
        """The sum of ``homology_rank`` over the cube, with each boundary
        map ranked once: every rank is subtracted from the degree it
        leaves and from the degree it enters."""
        return self.dim - 2 * sum(linalg.rank(self.boundary_columns(h))
                                  for h in self.by_h)

    # -- the quantum filtration grading ------------------------------------

    def qgr(self, chain):
        """Smallest filtration level containing the class of ``chain``.

        ``chain`` must be a cycle in homological degree 0.  The boundaries
        keep q or drop it by 4, so the degree-0 rows split into two blocks
        by q mod 4 that no boundary mixes, and the chain's level is the
        higher of its two parts' levels.  Each part is asked of cuts of
        its block, from its top q down: the cut at level L keeps the
        block's rows with q >= L.  If the part above the cut has a nonzero
        residue modulo the boundaries' parts above it, the residue leads
        with a term no boundary can cancel, and that term's q is the
        part's level.  A zero residue means the level lies below L, so the
        next cut is 4 lower; once the cut holds the whole block it means
        the part is a boundary.  The part with the higher pending q is
        asked first, and a part whose pending q cannot beat the level
        found is not asked.  The deepest cut tried in each block is
        cached, and a question starts at it if it lies below the part's
        top q.
        """
        if not chain:
            raise ZeroClass("the zero chain has no filtration grading")
        if any(self.basis_h[i] for i in chain):
            raise NotACycle("chain is not homogeneous of homological degree 0")
        if not self._is_cycle(chain):
            raise NotACycle("chain is not a cycle")

        q_of, dim = self.basis_q, self.dim
        pending = {}    # block q mod 4 -> the highest q its level may have
        for i in chain:
            c = q_of[i] % 4
            pending[c] = max(pending.get(c, q_of[i]), q_of[i])
        level = None
        while pending:
            c = max(pending, key=pending.get)
            if level is not None and pending[c] <= level:
                break
            cut = self._cuts.get(c)
            if cut is None or cut.level > pending[c]:
                cut = self._cuts[c] = self._cut_at(pending[c])
                self._cuts_tried += 1
            residue = cut.echelon.reduce(
                {dim * (1 - q_of[i]) - 1 - i: v for i, v in chain.items()
                 if q_of[i] >= cut.level and q_of[i] % 4 == c})
            if residue:
                found = -(min(residue) // dim)
                level = found if level is None else max(level, found)
                del pending[c]
            elif cut.level <= self._q_floor + 2:
                del pending[c]      # the block holds all its rows
            else:
                pending[c] = cut.level - 4
        if level is None:
            raise ZeroClass("chain is a boundary")
        return level

    @cached_property
    def _q_floor(self):
        """The lowest q of a degree-0 generator, a subset 0 of the
        resolution with the most circles."""
        return min(self.basis_q[first] for t, first in self.start.items()
                   if t.bit_count() == self.n_minus)

    def _cut_at(self, level):
        """The degree -1 boundaries of the block q = ``level`` mod 4,
        projected onto its degree-0 rows with q >= ``level``, as an
        echelon.

        Row i at level q is keyed ``dim * (1 - q) - 1 - i``, so keys run
        by (q, index) descending and every pivot is a highest-q term.
        Any order within a q level is valid; on the benchmark braids,
        descending index leaves 3-9x fewer echelon nonzeros than
        ascending.  A source's images lie at its own q and 4 below, so a
        source below the cut or in the other block projects to zero and
        is never made, nor is one that ``_cleared`` names.  The vectors
        are assembled from the edge maps, in index order, one resolution
        at a time.
        """
        q_of, dim = self.basis_q, self.dim
        cleared = self._cleared(level)
        ech = linalg.Echelon()
        nnz = 0
        for t, first in self.start.items():
            if t.bit_count() != self.n_minus - 1:
                continue
            r = _count(self.labels[t])
            cols = {s: {} for s in _in_cut(q_of[first], r, level)
                    if not cleared[first + s]}
            if not cols:
                continue
            for t2, sign, images in self._edge_maps(t):
                offset = self.start[t2]
                for image in images:
                    for s, col in cols.items():
                        row = offset + image[s]
                        q = q_of[row]
                        if q >= level:
                            col[dim * (1 - q) - 1 - row] = sign
            for col in cols.values():
                nnz += len(col)
                ech.add(col)
        return Cut(level, ech, nnz, cleared.count(1))

    def _cleared(self, level):
        """Sources of the cut at ``level`` that reduce to zero in it, as a
        0/1 mask over basis indices, found with no reduction, like the
        apparent pairs of Bauer's "Ripser".

        The cut is F_{>=level} of its block, so for a degree -2 generator
        in the block at q >= level, its boundary's terms at q >= level are
        a kernel vector of the cut (d d = 0).  ``_cut_at`` adds sources in
        ascending index, so the vector's largest index reduces to zero;
        it lies in the target of the highest crossing bit with such a term.
        The degree -2 labels are not kept, and the walk stops past
        ``MAX_GENERATORS`` generators: any subset of these is sound.
        """
        cleared = bytearray(self.dim)
        if self.n_minus < 2:
            return cleared
        q_of, start = self.basis_q, self.start
        slot_edges = self.diagram.slot_edges
        budget = MAX_GENERATORS
        for ones in itertools.combinations(range(self.n), self.n_minus - 2):
            t = sum(1 << i for i in ones)
            src = self.diagram.circle_labels(t)
            r = _count(src)
            budget -= 1 << r
            if budget < 0:
                break
            pending = _in_cut(-r - self.writhe + 2, r, level)  # h = -2
            if not pending:
                continue
            smallest = _smallest(src)
            for i in reversed(range(self.n)):
                if (t >> i) & 1:
                    continue
                t2 = t | (1 << i)
                first = start[t2]
                images = _edge_map(slot_edges, src, smallest, i,
                                   self.labels[t2])
                least = (level - q_of[first]) // 2    # the least |image|
                left = []
                for s in pending:
                    top = -1
                    for image in images:
                        out = image[s]
                        if out > top and out.bit_count() >= least:
                            top = out
                    if top < 0:
                        left.append(s)
                    else:
                        cleared[first + top] = 1
                pending = left
                if not pending:
                    break
        return cleared

    # -- canonical generators ----------------------------------------------

    def seifert_coloring(self):
        """2-coloring of the Seifert graph by nesting parity.

        The Seifert graph of a planar diagram is bipartite; a wrong
        coloring would give a chain that ``_is_cycle`` rejects."""
        labels = self.labels[self.diagram.oriented_mask]
        slot_edges = self.diagram.slot_edges
        r = _count(labels)
        adj = {k: set() for k in range(r)}
        for i in range(self.n):
            # the two circles the crossing joins in the Seifert graph
            ks = {labels[e] for e in slot_edges[4 * i:4 * i + 4]}
            k1, k2 = min(ks), max(ks)
            adj[k1].add(k2)
            adj[k2].add(k1)
        color = {}
        for root in range(r):
            if root in color:
                continue
            color[root] = 0
            stack = [root]
            while stack:
                k = stack.pop()
                for k2 in adj[k]:
                    if k2 not in color:
                        color[k2] = 1 - color[k]
                        stack.append(k2)
        return [color[k] for k in range(r)]

    def canonical_cycle(self, label):
        """The canonical cycle g of root label +1 or -1, as a chain.

        g is the product over the Seifert circles of (x_c + label_c), the
        labels alternating with the coloring, at the oriented resolution.
        The product is built by doubling, once per circle: subsets
        without the circle take its label, subsets with it its x.  Its
        part in one q mod 4 block is a parity piece ``h_cycle``."""
        if label not in (1, -1):
            raise ValueError("label must be +1 or -1")
        coeffs = [1]
        for col in self.seifert_coloring():
            eps = label if col == 0 else -label
            coeffs = [c * eps for c in coeffs] + coeffs
        chain = dict(enumerate(coeffs, self.start[self.diagram.oriented_mask]))
        if not self._is_cycle(chain):
            raise InconsistentDiagram("canonical chain is not a cycle")
        return chain

    def _parity_part(self, chain, p):
        """The terms of ``chain`` whose subset has parity p."""
        return {i: v for i, v in chain.items()
                if self.basis_subset[i].bit_count() % 2 == p}

    def h_cycle(self, p):
        """The parity piece h_p: the terms of ``canonical_cycle(1)`` whose
        subset s has |s| = p (mod 2).

        At the oriented resolution q = q0 + 2|s|, so h_p is g's part in
        the q mod 4 block of q0 + 2p.  d keeps q or drops it by 4, so that
        part of a cycle is itself a cycle, g = h_0 + h_1, and
        ``canonical_cycle(-1)`` is (-1)^r (h_0 - h_1) over r circles."""
        if p not in (0, 1):
            raise ValueError("p must be 0 or 1")
        return self._parity_part(self.canonical_cycle(1), p)

    def low_generator(self):
        """The parity piece of lower filtration level, as (p, h_p,
        level); both pieces come from one canonical chain."""
        g = self.canonical_cycle(1)
        pieces = [self._parity_part(g, p) for p in (0, 1)]
        level, p = min((self.qgr(h), p) for p, h in enumerate(pieces))
        return p, pieces[p], level

    # -- top-level invariant -------------------------------------------------

    def s2(self):
        return self.qgr(self.canonical_cycle(1)) - 1


def _printable(n, prefix=""):
    """``prefix`` and ``n``, or past 20 digits "at least 2^k" with 2^k <= n:
    Python refuses to turn an int of over 4300 digits into a string."""
    if n < 10 ** 20:
        return f"{prefix}{n}"
    return f"at least 2^{n.bit_length() - 1}"


def _count(labels):
    """The number of circles of a resolution given as labels."""
    return max(labels, default=-1) + 1


def _smallest(labels):
    """The smallest edge of each circle of a resolution given as labels."""
    smallest = []
    for e, k in enumerate(labels):
        if k == len(smallest):
            smallest.append(e)
    return smallest


def _edge_map(slot_edges, src, smallest, i, dst):
    """The edge map that smooths crossing i, from the resolution with
    circle labels ``src`` to the one with labels ``dst``, as a list of
    images.

    Each image list holds, for every subset s of the source's circles,
    the subset of the target's circles that one term of the edge map
    sends s to; a merge has one term, a split two.  A list is built by
    doubling, once per source circle: that circle's bit flips the bit
    of the target circle it lands on.  XOR makes the two merged circles
    multiply (1*1 = x*x = 1, 1*x = x), and for a split it turns the
    two terms of D(1) into those of D(x).

    Circles are read as labels: a source circle lands where the target
    labels its smallest edge, ``smallest``, and the target smooths
    crossing i as (a, d), (b, c), so edges a and b lie on one target
    circle after a merge and on the two circles of a split.
    """
    a = slot_edges[4 * i]
    lo, hi = dst[a], dst[slot_edges[4 * i + 1]]
    flips = [1 << dst[e] for e in smallest]
    # the planarity check in FilteredComplex rules out anything but a merge
    # into one circle or a split into two
    if lo == hi:
        starts = (0,)
    else:
        if lo > hi:
            lo, hi = hi, lo
        flips[src[a]] = 1 << hi    # the second circle of the split
        starts = (1 << lo, 1 << hi)
    images = []
    for first in starts:
        image = [first]
        for m in flips:
            image += [out ^ m for out in image]
        images.append(image)
    return images


def _in_cut(q0, r, level):
    """The subsets s of r circles with q = q0 + 2|s| at least ``level``
    and in its q mod 4 block: |s| >= (level - q0) / 2, of that parity."""
    least = (level - q0) // 2
    sizes = range(least % 2 if least < 0 else least, r + 1, 2)
    if not sizes:
        return []
    return [s for s in range(1 << r) if s.bit_count() in sizes]


def s2(diagram):
    """The n=2 concordance invariant of the link presented by ``diagram``."""
    if diagram.n_components == 0:
        raise ValueError("s2 of the empty link is undefined")
    return FilteredComplex(diagram).s2()

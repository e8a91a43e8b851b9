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
of a block at level L keeps its degree-0 rows with q >= L, keyed by
index alone, and eliminates its degree -1 boundaries projected onto
them.  It answers one yes/no question: is a cycle's part in the block
above L a combination of those boundaries?  The cuts of a block are
asked from the part's top q down, 4 apart, and the first that answers
no is the part's filtration level, L (the proof is in ``qgr``).  A
cycle's level is the higher of its parts' levels.  No cut reads a row
or a boundary below it or outside its block, and it skips the sources
that degree -2 boundaries show to lie in the span of the others
(``_cleared``: one level of the clearing of Chen and Kerber 2011, with
no degree -2 reduction, each kernel vector's largest term by (q,
index), in one pass over the edges), when finding them visits no more
resolutions than the cut adds sources.  ``_in_cut`` states once which
generators a cut holds.  Each cut is built for one residue and dropped
before the next is built.

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
builds every degree, for the checks of d^2, the q drop and the homology,
each from the edge maps: d^2 one square type at a time, the q drop
(``verify``) one image table at a time, and the homology ranks one
degree at a time, in a cleared sweep (``_ranks``).  A degree-0 chain is
checked to be a cycle on demand, by the edge maps out of its own
resolutions: only a target that two of them share, one per pair that
differs in two crossings, is kept while the edges are summed.  ``dim``
counts the generators built, indexed by degree, then t, then subset, so
each degree is one range, ``by_h[h]``.  Nothing is kept or asked per
generator: a chain's terms are grouped by resolution, one bisect over
the first indices each, and a term's q is its resolution's q0, the q of
subset 0, plus 2|s|.  An edge's shape gives its target's q0: a merge
keeps the source's q0 and a split lowers it by 2, so a cut reads the q
of each image term off the edge and the term.

A resolution's circles are held as labels, ``LinkDiagram.circle_labels``:
entry i is the circle of edge i, circles numbered by their smallest edge,
so a resolution with largest label r - 1 has r circles.  The labels of
every built resolution are memoized on the complex, as bytes.  Two
neighbouring resolutions differ at one crossing, the locality that
Bar-Natan's "Fast Khovanov homology computations" (math/0606318) builds
on.  If the change merges circles lo < hi, the merged labels are the
other's with hi renamed lo and every label above hi lowered by one: one
``bytes.translate`` through a 256-byte table per (lo, hi),
``_merge_table``.  So the build walks its lowest degree, and above it
only the resolutions that no neighbour one degree below merges into;
clearing takes the degree -2 labels from degree -1 the same way.  A
byte caps a label at 255, which is no limit: a resolution of r circles
holds 2^r generators, so one of more than 20 is over ``MAX_GENERATORS``,
and every walk is held to the budget before it becomes bytes.

An edge map is a function of its shape (r, lo, hi, split), read from
labels at the crossing's edges (``_edge_map``): the source's labels tell
a merge of circles lo < hi from a split, and only a split labels its
target, to number its two circles.  The edges in each crossing's slots
0, 1 and 2 are one triple per crossing, ``_slots``, and every walk over
a resolution's edges steps one bit along the crossings and keeps the
sign running, so each edge takes the same few steps wherever its
crossing lies.  Each shape's image table is built once per complex, in
``_images``, and shared by the differential, the cuts, their clearing
and the cycle checks; a cut reads the terms it keeps of each shape from
one table derived from it (``_kept``).  Every edge out of the oriented
resolution merges two Seifert circles, so the cycle check of a
canonical cycle labels no neighbour.

A build costs the generators it creates, the sum of 2^r over its
r-circle resolutions, so that count, not the crossing count, is held to
``MAX_GENERATORS``, and ``TooLarge`` is raised before any column is
allocated.

The edge maps assume that every smoothing change merges two circles or
splits one, which holds for a planar diagram.  The complex checks that
once, in O(c), with Euler's formula (``LinkDiagram.check_planar``).
"""

import bisect
import functools
import math
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import NotACycle, TooLarge, ZeroClass

MAX_GENERATORS = 1 << 20   # the generators one build may create


class Cut(NamedTuple):
    """The sizes of one q mod 4 block's degree -1 boundaries above one
    level, eliminated: what ``stats`` reports of a cut, not its echelon."""
    level: int                  # the lowest q of a degree-0 row kept
    pivots: int                 # the rank of the vectors eliminated
    nnz: int                    # nonzeros of the vectors eliminated
    cleared: int                # sources skipped, see _cleared


class FilteredComplex:
    """The complex in homological degrees -1..0, or in every degree if
    ``whole``.

    Both builds answer ``s2``, ``qgr`` and the canonical cycles, whose
    cycle checks apply the differential on demand.  The questions that
    read every degree, ``check_d_squared``, ``homology_rank`` and
    ``homology_dimension``, raise ``ValueError`` unless ``whole``; the
    last two read one cleared rank sweep, computed once per complex.  Each
    reads the edge maps, not ``columns``, a view for the tests and the
    benchmark harness.  A degree outside the cube is empty, so -1..0 is
    clipped to the cube.  The basis runs by degree, then t, then subset:
    ``by_h[h]`` is a range and ``start[t]`` a first index, so generator
    (t, subset) is ``start[t] + subset``.  A build keeps ``start`` and
    ``labels`` per resolution and nothing per generator.
    """

    def __init__(self, diagram, whole=False):
        diagram.check_planar()
        self.diagram = diagram
        self.whole = whole
        self.n = diagram.n_crossings
        self.writhe = diagram.writhe
        self.n_minus = diagram.n_minus
        self.degrees = (-self.n_minus, self.n - self.n_minus)  # the cube's
        self.built = self.degrees if whole else (max(-1, -self.n_minus), 0)
        # crossing i -> the edges in its slots 0, 1 and 2, see _shape
        slot_edges = diagram.slot_edges
        self._slots = list(zip(slot_edges[0::4], slot_edges[1::4],
                               slot_edges[2::4]))
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self):
        lo, hi = self.built
        # t -> circle labels as bytes, for t built and for the neighbours
        # an on-demand cycle check has visited
        self.labels = labels = {}
        self.start = {}        # t -> first basis index, for t built
        self.by_h = {}         # h -> its range of basis indices
        popcounts = range(lo + self.n_minus, hi + self.n_minus + 1)  # |t|
        # every resolution holds at least one generator
        resolutions = sum(math.comb(self.n, k) for k in popcounts)
        if resolutions > MAX_GENERATORS:
            raise TooLarge(f"{_printable(resolutions)} resolutions in "
                           f"degrees {lo}..{hi} exceed the budget of "
                           f"{MAX_GENERATORS} generators")
        # h -> r -> how many degree-h resolutions have r circles
        self._circles = {}
        idx = 0
        for h, k in zip(range(lo, hi + 1), popcounts):
            first = idx    # degree h's range, its resolutions in ascending t
            counts = self._circles[h] = {}
            for t in _ascending(self.n, k):
                # from a neighbour one degree below, if one merges into t
                dst = self._resolve(t, t if h > lo else 0)
                r = _count(dst)
                self.start[t] = idx
                idx += 1 << r
                if idx > MAX_GENERATORS:
                    raise TooLarge(f"{_printable(idx, 'at least ')} "
                                   f"generators in degrees {lo}..{hi} "
                                   f"exceed the budget of {MAX_GENERATORS}")
                labels[t] = bytes(dst)    # r <= 20 circles, each < 256
                counts[r] = counts.get(r, 0) + 1
            self.by_h[h] = range(first, idx)
        self.dim = idx
        # the lowest q of a degree-0 generator, a subset 0 of the
        # resolution with the most circles
        self._q_floor = -self.writhe - max(self._circles[0])
        self._cuts = {}        # q mod 4 -> the deepest Cut tried, see stats
        self._tables = {}      # (r, lo, hi, split) -> images, see _images
        self._subsets = {}     # (level, h, r) -> subsets, see _in_cut
        self._cuts_tried = 0

    def _resolve(self, t, flips):
        """The circle labels of resolution t, from a labelled neighbour's.

        Neighbour t ^ (1 << i) is tried for each bit i of ``flips`` in
        ascending order.  If its labels show that smoothing crossing i the
        other way merges two circles, t's labels are the neighbour's with
        those two merged, ``_merged``, as bytes.  If no neighbour merges,
        t is walked, ``LinkDiagram.circle_labels``, and its labels come
        back as a tuple, which the caller checks against the budget before
        any conversion to bytes.
        """
        labels, slots = self.labels, self._slots
        while flips:
            bit = flips & -flips
            flips ^= bit
            a, _, c = slots[bit.bit_length() - 1]
            dst = _merged(labels[t ^ bit], a, c)
            if dst is not None:
                return dst
        return self.diagram.circle_labels(t)

    @cached_property
    def _masks(self):
        """The built resolutions in basis order, and their first indices."""
        return list(self.start), list(self.start.values())

    def _q0(self, t):
        """The q of subset 0 of built resolution t, -r_t - w - h."""
        return (self.n_minus - t.bit_count() - _count(self.labels[t])
                - self.writhe)

    def _by_resolution(self, chain):
        """The terms of ``chain`` grouped by resolution, t -> [(subset,
        coefficient)]: the indices are visited in ascending order, so each
        resolution is found by one bisect."""
        masks, firsts = self._masks
        groups, end = {}, 0
        for i in sorted(chain):
            if i >= end:
                k = bisect.bisect(firsts, i) - 1
                first = firsts[k]
                end = firsts[k + 1] if k + 1 < len(firsts) else self.dim
                terms = groups[masks[k]] = []
            terms.append((i - first, chain[i]))
        return groups

    @cached_property
    def columns(self):
        """The differential between built degrees, basis index -> list of
        (row, coeff): ``_boundaries`` below the top built degree, and []
        for each top-degree generator.  Only the tests and the benchmark
        harness read it."""
        lo, hi = self.built
        return ([list(vec.items()) for h in range(lo, hi)
                 for vec in self._boundaries(h)]
                + [[] for _ in self.by_h[hi]])

    def _boundaries(self, h):
        """d of every degree-h generator, in basis order, as dicts row ->
        coefficient, from ``_edge_maps``: by edge in ascending crossing
        order, then by image.  h lies below the top built degree, or is
        the whole cube's top, which has no edges."""
        vectors, start = [], self.start
        for t in _ascending(self.n, h + self.n_minus):
            cols = [{} for _ in range(1 << _count(self.labels[t]))]
            for t2, sign, images in self._edge_maps(t):
                offset = start[t2]
                for image in images:
                    for col, out in zip(cols, image):
                        col[offset + out] = sign
            vectors += cols
        return vectors

    def _check_whole(self):
        """Refuse a question that reads every degree unless ``whole``."""
        if not self.whole:
            raise ValueError("this question reads every homological degree; "
                             "build FilteredComplex(diagram, whole=True)")

    def stats(self):
        """Sizes of what was built, and of the ``qgr`` cuts.

        ``nnz`` counts the entries of ``columns`` without building it: an
        edge out of an r-circle resolution has 2^r terms per image of
        ``_images``, one image if it merges and two if it splits.  ``cut``
        lists the levels of the deepest cut tried in each q mod 4 block,
        highest first; ``cuts_tried`` counts the echelons built so far,
        ``pivots`` and ``cut_nnz`` those deepest cuts' rank and the
        nonzeros of the vectors they eliminated, and ``cleared`` the
        sources they skipped, each kept as a ``Cut``."""
        top = self.by_h[self.built[1]]
        nnz = sum(len(images) << _count(self.labels[t])
                  for t, first in self.start.items() if first not in top
                  for _, _, images in self._edge_maps(t))
        cuts = self._cuts.values()
        return {
            "degrees": list(self.built),
            "resolutions": len(self.start),
            "dim": self.dim,
            "nnz": nnz,
            "boundary_cols": len(self.by_h.get(-1, ())),
            "cut": sorted((cut.level for cut in cuts), reverse=True),
            "cuts_tried": self._cuts_tried,
            "pivots": sum(cut.pivots for cut in cuts),
            "cut_nnz": sum(cut.nnz for cut in cuts),
            "cleared": sum(cut.cleared for cut in cuts),
        }

    def _edge_maps(self, t):
        """The cube edges out of built resolution t, as (t2, sign, images),
        with the images of ``_images``, in ascending crossing order.  The
        sign is (-1) to the number of crossings below the edge's that t
        smooths as 1, kept running: one bit is stepped per crossing."""
        src = self.labels[t]
        r = _count(src)
        sign, bit = 1, 1
        for i in range(self.n):
            if t & bit:
                sign = -sign
            else:
                t2 = t | bit
                yield t2, sign, self._images(self._shape(src, r, i, t2))
            bit <<= 1

    def _shape(self, src, r, i, t2):
        """The shape (r, lo, hi, split) of the edge that smooths crossing
        i of the resolution with labels ``src`` and r circles, into
        resolution t2.  The source smooths crossing i as (a, b), (c, d),
        so the edge merges circles ``src[a]`` and ``src[c]`` if they
        differ; if not, it splits that circle, and t2 is labelled (and
        memoized) to find the two circles a and b land on.  The edges a,
        b and c are read from the complex's table ``_slots``, one triple
        per crossing."""
        a, b, c = self._slots[i]
        lo, hi = src[a], src[c]
        split = lo == hi
        if split:
            dst = self.labels.get(t2)
            if dst is None:
                dst = self.labels[t2] = bytes(self.diagram.circle_labels(t2))
            lo, hi = dst[a], dst[b]
        if lo > hi:
            lo, hi = hi, lo
        return r, lo, hi, split

    def _images(self, shape):
        """The table ``_edge_map`` of an edge's shape, memoized on the
        complex."""
        images = self._tables.get(shape)
        if images is None:
            images = self._tables[shape] = _edge_map(*shape)
        return images

    def _in_cut(self, level, h, r):
        """The subsets s of a degree-h resolution of r circles whose
        generators lie in the cut at ``level``: q = q0 + 2|s| is at least
        ``level`` and in its q mod 4 block, for q0 = -r - w - h, the q of
        subset 0.  The one statement of the rule, for the cut's sources,
        the clearing's degree -2 generators and its gate; memoized on the
        complex, and dropped with it."""
        subsets = self._subsets.get((level, h, r))
        if subsets is None:
            q0 = -r - self.writhe - h
            subsets = self._subsets[level, h, r] = _cut_subsets(
                (level - q0) // 2, r)
        return subsets

    # -- chain-level helpers ----------------------------------------------

    def check_d_squared(self):
        """Whether d d = 0, checked one square of the cube at a time, with
        no column built.

        d d of a generator of resolution t lands in the resolutions
        t|i|j, each reached by two paths, through t|i and through t|j.
        Every term along a path has the product of its two edges' signs,
        so the square cancels if and only if the paths' signs are
        opposite and they send every subset to the same multiset of
        subsets.  That multiset depends only on the paths' four image
        tables, which live in ``_tables`` for the complex's life, one per
        shape, so each square type is composed once, keyed by the tables'
        ids.  The edges out of a resolution are read when it is first
        needed, as a source or as a square's middle, and dropped once it
        has been a source: the sources run in basis order, so by then
        every square through it is done."""
        self._check_whole()
        edges = {}      # t -> {t2: (sign, images, id(images))}
        agree = {}      # the ids of a square's four tables, path by path
                        # -> whether the two paths agree

        def out_of(t):
            if t not in edges:
                edges[t] = {t2: (sign, images, id(images))
                            for t2, sign, images in self._edge_maps(t)}
            return edges[t]
        for t in self.start:
            steps = [(ti, *edge, out_of(ti)) for ti, edge in out_of(t).items()]
            del edges[t]
            for k, (ti, si, ai, ka, after_i) in enumerate(steps):
                for tj, sj, aj, kb, after_j in steps[k + 1:]:
                    si2, ai2, ka2 = after_i[ti | tj]
                    sj2, aj2, kb2 = after_j[ti | tj]
                    if si * si2 == sj * sj2:
                        return False
                    key = ka, ka2, kb, kb2
                    if key not in agree:
                        agree[key] = (_composite(ai, ai2)
                                      == _composite(aj, aj2))
                    if not agree[key]:
                        return False
        return True

    def _is_cycle(self, groups):
        """Whether d = 0 on a chain given as ``_by_resolution`` groups.

        d is applied on demand from the edge maps out of the chain's own
        resolutions, so the check needs no column built: it works in
        every built degree, the top one included.  The chain's
        resolutions t and u lie in one degree, so they share an edge
        target only if they differ in exactly two crossings, and then it
        is t | u.  Those shared targets are found once, pair by pair, and
        their image terms summed across the edges into them.  Every other
        target has one source, so its terms are summed and checked on the
        spot and dropped: no key is kept per edge.  Every edge is visited
        even once a sum is nonzero, so each check labels the same
        neighbours, whatever its answer.
        """
        masks = list(groups)
        shared = {t | u for k, t in enumerate(masks) for u in masks[k + 1:]
                  if (t ^ u).bit_count() == 2}
        sums = {}   # shared t2 -> {subset: coefficient}
        zero = True
        for t, terms in groups.items():
            for t2, sign, images in self._edge_maps(t):
                alone = not shared or t2 not in shared
                acc = {} if alone else sums.setdefault(t2, {})
                for image in images:
                    for subset, v in terms:
                        out_s = image[subset]
                        acc[out_s] = acc.get(out_s, 0) + sign * v
                if alone and any(acc.values()):
                    zero = False
        return zero and not any(v for acc in sums.values()
                                for v in acc.values())

    @cached_property
    def _ranks(self):
        """The rank of the boundary map out of each degree, by one sweep
        in ascending degree with one echelon per map, cleared (Chen and
        Kerber 2011), holding one degree's vectors, ``_boundaries``.  It
        runs once per complex; the homology questions read its result.

        A pivot row R of the map out of h - 1 is a boundary in degree h,
        led by its smallest index p.  If d(R) = sum R_i d(e_i), read off
        degree h's vectors, is 0, vector p is a combination of those
        with larger indices, so it is not added; any set of vectors
        skipped this way leaves the rank unchanged.  d(R) = 0 is checked,
        not assumed from d d = 0, so the ranks stay exact where d^2 is
        not zero, and the homology check does not rest on the d^2 check."""
        self._check_whole()
        ranks, rows = {}, {}
        for h in range(self.built[0], self.built[1] + 1):
            first, vectors = self.by_h[h].start, self._boundaries(h)
            skip = {p - first for p, row in rows.items()
                    if _vanishes(row, vectors, first)}
            ech = linalg.Echelon()
            for k, vec in enumerate(vectors):
                if k not in skip:
                    ech.add(vec)
            del vectors     # before the next degree's are built
            ranks[h], rows = ech.rank, ech.pivots
        return ranks

    def homology_rank(self, h):
        """dim H in degree h: its generators, less the ranks of the maps
        out of h and into h, read from one cleared sweep, ``_ranks``."""
        ranks = self._ranks
        return (len(self.by_h.get(h, ())) - ranks.get(h, 0)
                - ranks.get(h - 1, 0))

    def homology_dimension(self):
        """The sum of ``homology_rank`` over the cube, with each boundary
        map ranked once by ``_ranks``: every rank is subtracted from the
        degree it leaves and from the degree it enters."""
        return self.dim - 2 * sum(self._ranks.values())

    # -- the quantum filtration grading ------------------------------------

    def qgr(self, chain):
        """Smallest filtration level containing the class of ``chain``.

        ``chain`` must be a cycle in homological degree 0.  The boundaries
        keep q or drop it by 4, so the degree-0 rows split into two blocks
        by q mod 4 that no boundary mixes, and the chain's level is the
        higher of its two parts' levels.  Each part is asked of cuts of
        its block, from its top q down: the cut at level L keeps the
        block's rows with q >= L and asks whether the part above L is a
        combination of the boundaries' parts above L.  A yes moves the
        block 4 lower; once the cut holds the whole block it means the
        part is a boundary.  The first no is the part's level, L.

        The persistence reduction keys the rows by q, highest first, and
        reads the level off the q of the residue's leading term.  That
        term is L at the first no:
        - at the part's top q, the part lies at q = L alone;
        - after a zero residue at L + 4, the part above L equals, modulo
          the boundaries above L, a chain at q = L alone;
        - reduction never lowers the leading key, and it stops at a key
          that no pivot holds, so the residue leads with the highest key,
          the lowest q, of any leading term of the part plus a boundary:
          at most L, and at least L, the cut's lowest q.
        So only whether the residue is zero matters, and the cut keys its
        rows by index alone.  The part with the higher pending q is asked
        first, so when one part answers no, the other's pending q, and
        with it its level, is already lower.  Each cut is asked one
        residue and dropped before the next is built.
        """
        if not chain:
            raise ZeroClass("the zero chain has no filtration grading")
        if not all(i in self.by_h[0] for i in chain):
            raise NotACycle("chain has a term outside homological degree 0")
        groups = self._by_resolution(chain)
        if not self._is_cycle(groups):
            raise NotACycle("chain is not a cycle")

        terms = []      # (q, index, coefficient)
        for t, group in groups.items():
            q0, first = self._q0(t), self.start[t]
            terms += [(q0 + 2 * s.bit_count(), first + s, v)
                      for s, v in group]
        pending = {}    # block q mod 4 -> the highest q its level may have
        for q, _, _ in terms:
            pending[q % 4] = max(pending.get(q % 4, q), q)
        while pending:
            c = max(pending, key=pending.get)
            cut = pending[c]
            if self._cut_at(cut).reduce({-i: v for q, i, v in terms
                                         if q >= cut and q % 4 == c}):
                return cut
            if cut <= self._q_floor + 2:
                del pending[c]      # the block holds all its rows
            else:
                pending[c] = cut - 4
        raise ZeroClass("chain is a boundary")

    def _cut_at(self, level):
        """The degree -1 boundaries of the block q = ``level`` mod 4,
        projected onto its degree-0 rows with q >= ``level``, as an
        echelon.  Its sizes are kept for ``stats`` if it is the block's
        deepest cut tried, the ``Cut`` of lowest level.

        Row i is keyed -i: ``qgr`` asks only whether a residue is zero,
        which no order of the rows changes.  On the benchmark braids,
        descending index leaves about as few echelon nonzeros as keys
        by (q, index) descending, and far fewer than ascending index.  A
        source's images lie at its own q and 4 below, so a source below
        the cut or in the other block projects to zero and is never made,
        nor is one that ``_cleared`` names.  The vectors are added in
        index order, one resolution at a time.

        No q is stored: what an edge adds to the cut depends only on its
        shape, so each shape's kept terms are read from one table,
        ``_kept``, and a column is one comprehension over its
        resolution's edges.  An edge's sign is the parity of the
        crossings below it that its source smooths as 1, kept running as
        one bit steps along the crossings, as in ``_edge_maps``; the
        source's ``_in_cut`` subsets are memoized on the complex.
        """
        start = self.start
        cleared = self._cleared(level)
        terms = {}      # shape -> _kept's, for this cut only
        ech = linalg.Echelon()
        nnz = 0
        for t in _ascending(self.n, self.n_minus - 1):    # degree -1
            first = start[t]
            src = self.labels[t]
            r = _count(src)
            subsets = self._in_cut(level, -1, r)
            keep = [s for s in subsets if not cleared[first + s]]
            if not keep:
                continue
            edges = []    # (key of the target's first row, sign, kept)
            sign, bit = 1, 1
            for i in range(self.n):
                if t & bit:
                    sign = -sign
                else:
                    t2 = t | bit
                    shape = self._shape(src, r, i, t2)
                    made = terms.get(shape)
                    if made is None:
                        made = terms[shape] = self._kept(
                            shape, self._q0(t), level, subsets)
                    edges.append((-start[t2], sign, made))
                bit <<= 1
            for s in keep:
                col = {base - out: sign for base, sign, kept in edges
                       for out in kept[s]}
                nnz += len(col)
                ech.add(col)
        self._cuts_tried += 1
        cut = Cut(level, ech.rank, nnz, cleared.count(1))
        self._cuts[level % 4] = min(cut, self._cuts.get(level % 4, cut))
        return ech

    def _kept(self, shape, q0, level, subsets):
        """What an edge of ``shape`` out of a degree -1 source adds to the
        cut at ``level``, derived from the shape's image table.
        ``_cut_at`` keeps it for the one cut it serves: each cut of a
        block lies below the last, so no later cut reads it.

        The source's q0 and its ``subsets`` in the cut follow from its r,
        the shape's first entry, and the level, so they are the same for
        every edge of one shape in one cut.  The target t2's q0 follows
        from the source's and the edge's shape, ``_target_q0``, so image
        term ``out`` lies at q0(t2) + 2|out| and is kept if that is at
        least ``level``.  The table maps each subset s to its kept terms
        ``out``, whose row is start[t2] + out."""
        images = self._images(shape)
        least = (level - _target_q0(q0, images)) // 2  # the least |out| kept
        return {s: [out for image in images
                    if (out := image[s]).bit_count() >= least]
                for s in subsets}

    def _cleared(self, level):
        """Sources of the cut at ``level`` whose vectors lie in the span of
        the cut's other sources, as a 0/1 mask over basis indices, found
        with no reduction, like the apparent pairs of Bauer's "Ripser".

        The cut is F_{>=level} of its block, so for a degree -2 generator
        in the block at q >= level, its boundary's terms at q >= level are
        a kernel vector of the cut (d d = 0), with every coefficient +-1.
        Order the sources by (q, index) and clear each kernel vector's
        largest term.  Vectors with distinct largest terms are triangular
        in that order, with a unit diagonal, so each cleared source's
        vector is a combination of the vectors of smaller sources, and so,
        by induction up the order, of the sources kept: skipping them all
        leaves the cut's span, its rank, its pivot keys and whether each
        residue is zero unchanged.  Any one total order would do; by (q,
        index) more kernel vectors have distinct largest terms than by
        index alone, so more sources are cleared.

        A kernel vector's largest term is its highest-index term at the
        generator's own q, if it has one: d keeps q or drops it by 4, and
        every term at the generator's q is in the cut.  Its targets lie in
        ascending index as their crossing bit rises, so one pass walks the
        edges from the highest crossing bit down and clears the first such
        term.  A generator tau = (t, s) with none needs no step of its own,
        since its largest term is cleared for another generator:
        - a split, or a merge of circles not both carrying x, has a term
          at the own q, so every edge out of t merges two circles of s;
        - let e, at t's highest crossing, merge circles A and B: its image
          sigma of s, at q(tau) - 4, is tau's largest term;
        - tau' = (t, s without A and B) lies in the same resolution, block
          and cut, at q(tau') = q(sigma), and e's image of it is sigma;
        - so the pass walks e first for tau' and clears sigma as the
          largest term of tau', at its own q.

        A degree -2 resolution's labels follow from a degree -1
        neighbour's, like those of ``_build``: if the edge into that
        neighbour splits a circle, the neighbour's labels, merged back,
        are the resolution's.  Only a resolution whose every edge merges
        is walked.  None of these labels is kept, and the walk stops past
        ``MAX_GENERATORS`` generators: any subset of these is sound.

        Clearing is done only when it costs no more than the cut it
        serves: when the degree -2 resolutions it would visit are no more
        than the sources the cut would add, counted from the build's
        record of how many degree -1 resolutions have r circles,
        ``_circles``.  Otherwise the mask is all 0.  On an all-negative
        2-strand link of c crossings the cut adds at most 2c sources,
        while clearing would visit all C(c, 2) degree -2 resolutions to
        skip them.
        """
        cleared = bytearray(self.dim)
        if self.n_minus < 2:
            return cleared      # no degree -2
        sources = sum(k * len(self._in_cut(level, -1, r))
                      for r, k in self._circles[-1].items())
        if math.comb(self.n, self.n_minus - 2) > sources:
            return cleared
        start, every = self.start, (1 << self.n) - 1
        budget = MAX_GENERATORS
        for t in _ascending(self.n, self.n_minus - 2):    # degree -2
            src = self._resolve(t, ~t & every)    # from degree -1
            r = _count(src)
            budget -= 1 << r
            if budget < 0:
                break
            pending = self._in_cut(level, -2, r)
            if not pending:
                continue
            bit = 1 << self.n
            for i in reversed(range(self.n)):
                bit >>= 1
                if t & bit:
                    continue
                t2 = t | bit
                images = self._images(self._shape(src, r, i, t2))
                # the size of a target subset at the source's own q
                grow = len(images) - 1
                left = []
                for s in pending:
                    own = s.bit_count() + grow
                    top = -1
                    for image in images:
                        out = image[s]
                        if out > top and out.bit_count() == own:
                            top = out
                    if top < 0:
                        left.append(s)
                    else:
                        cleared[start[t2] + top] = 1
                pending = left
                if not pending:
                    break
        return cleared

    # -- canonical generators ----------------------------------------------

    def seifert_coloring(self):
        """2-coloring of the Seifert graph by nesting parity.

        The Seifert graph of a planar diagram is bipartite; a wrong
        coloring would give a chain that ``qgr`` rejects."""
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
        part in one q mod 4 block is a parity piece ``h_cycle``.  It is
        not checked here: ``qgr`` checks every chain it is asked about."""
        if label not in (1, -1):
            raise ValueError("label must be +1 or -1")
        coeffs = [1]
        for col in self.seifert_coloring():
            eps = label if col == 0 else -label
            coeffs = [c * eps for c in coeffs] + coeffs
        return dict(enumerate(coeffs, self.start[self.diagram.oriented_mask]))

    def h_cycle(self, p):
        """The parity piece h_p: the terms of ``canonical_cycle(1)`` whose
        subset s has |s| = p (mod 2).

        At the oriented resolution q = q0 + 2|s|, so h_p is g's part in
        the q mod 4 block of q0 + 2p.  d keeps q or drops it by 4, so that
        part of a cycle is itself a cycle, g = h_0 + h_1, and
        ``canonical_cycle(-1)`` is (-1)^r (h_0 - h_1) over r circles."""
        if p not in (0, 1):
            raise ValueError("p must be 0 or 1")
        return self._parity_pieces()[p]

    def _parity_pieces(self):
        """(h_0, h_1), split from one ``canonical_cycle(1)``: a term's
        subset is its offset from the oriented resolution's first index."""
        first = self.start[self.diagram.oriented_mask]
        pieces = ({}, {})
        for i, v in self.canonical_cycle(1).items():
            pieces[(i - first).bit_count() % 2][i] = v
        return pieces

    def low_generator(self):
        """The parity piece of lower filtration level, as (p, h_p,
        level)."""
        pieces = self._parity_pieces()
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
    return max(labels) + 1 if labels else 0


def _ascending(n, k):
    """The n-bit masks with k ones, in ascending order: each is the next
    larger mask with k ones after the last (Gosper's hack).  There are
    none if k < 0."""
    if k < 1:
        if k == 0:
            yield 0
        return
    t, end = (1 << k) - 1, 1 << n
    while t < end:
        yield t
        low = t & -t
        up = t + low
        t = (((up ^ t) >> 2) // low) | up


def _merged(labels, a, c):
    """The labels after smoothing the other way the crossing whose slots
    0 and 2 hold edges a and c, if that merges two circles, else None.

    Smoothing 0 pairs slots (0, 1) and (2, 3), smoothing 1 pairs (0, 3)
    and (1, 2), so either way edges a and c lie on different arcs: on
    two circles, which the change merges, or on one, which it splits."""
    lo, hi = labels[a], labels[c]
    if lo == hi:
        return None
    if lo > hi:
        lo, hi = hi, lo
    return labels.translate(_merge_table(lo, hi))


@functools.cache
def _merge_table(lo, hi):
    """The ``bytes.translate`` table that merges circle hi into lo < hi:
    the merged circle's smallest edge is lo's, so the circles below hi
    keep their number and those above it move down one."""
    return bytes(range(hi)) + bytes((lo,)) + bytes(range(hi, 255))


def _edge_map(r, lo, hi, split):
    """The edge map out of a resolution with r circles that merges its
    circles lo < hi, or if ``split`` splits its circle lo into the
    target's circles lo < hi, as a list of images.

    Each image list holds, for every subset s of the source's circles,
    the subset of the target's circles that one term of the edge map
    sends s to; a merge has one term, a split two.  A list is built by
    doubling, once per source circle: that circle's bit flips the bit
    of the target circle it lands on.  XOR makes the two merged circles
    multiply (1*1 = x*x = 1, 1*x = x), and for a split it turns the
    two terms of D(1) into those of D(x).

    Circles are numbered by their smallest edge, so four ints give the
    whole map.  A merge joins lo and hi into one circle whose smallest
    edge is lo's: the circles below hi keep their number, and those
    above it move down one.  A split keeps the split circle's smallest
    edge on the piece numbered lo, the source's own number, and the
    other piece's smallest edge is new, numbered hi: the circles at or
    above hi move up one.
    """
    if split:
        flips = [1 << (j if j < hi else j + 1) for j in range(r)]
        flips[lo] = 1 << hi    # the second circle of the split
        starts = (1 << lo, 1 << hi)
    else:
        flips = [1 << (j if j < hi else j - 1) for j in range(r)]
        flips[hi] = 1 << lo
        starts = (0,)
    images = []
    for first in starts:
        image = [first]
        for m in flips:
            image += [out ^ m for out in image]
        images.append(image)
    return images


def _composite(first, second):
    """The image table ``second`` after ``first``: for every subset s of
    the first source's circles, the sorted list of the subsets that the
    terms of the composed map send s to."""
    return [sorted(outs) for outs in
            zip(*([image2[out] for out in image] for image in first
                  for image2 in second))]


def _vanishes(row, vectors, first):
    """Whether the sum of ``row[i] * vectors[i - first]`` is zero."""
    out = {}
    for i, c in row.items():
        for k, v in vectors[i - first].items():
            out[k] = out.get(k, 0) + c * v
    return not any(out.values())


def _target_q0(q0, images):
    """The q0 (the q of subset 0) of an edge's target, from its source's
    q0 and its images: a merge has one image and keeps q0, since r drops
    by 1 as h rises by 1, and a split has two and lowers it by 2."""
    return q0 + 2 - 2 * len(images)


def _cut_subsets(least, r):
    """The subsets s of r circles in a cut that keeps |s| >= ``least``, of
    its parity: the subsets with q = q0 + 2|s| at least the cut's level
    and in its q mod 4 block, for least = (level - q0) / 2 rounded down."""
    sizes = range(least % 2 if least < 0 else least, r + 1, 2)
    if not sizes:
        return []
    return [s for s in range(1 << r) if s.bit_count() in sizes]


def s2(diagram):
    """The n=2 concordance invariant of the link presented by ``diagram``."""
    if diagram.n_components == 0:
        raise ValueError("s2 of the empty link is undefined")
    return FilteredComplex(diagram).s2()

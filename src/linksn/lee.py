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
Zomorodian 2002; the filtered view of ``s`` in Rasmussen, math/0402131):
the degree -1 boundaries are eliminated once per complex with degree-0
rows numbered from the highest q down, and a cycle's filtration level is
the q of the leading term of its residue.

``s2`` reads only homological degrees -1 and 0: the level of a degree-0
cycle depends only on the degree -1 boundaries that land in degree 0.
So ``lee.s2`` builds the complex in the window (-1, 0): the resolutions
with |t| - N_minus in that range and the differential out of degree -1.
That a degree-0 chain is a cycle is still checked, on demand: the edge
maps out of the chain's own resolutions are applied, and the circles of
each neighbouring resolution are memoized on the complex.  ``dim``
counts the generators built, not the full cube's, and no resolution
outside the window is visited by the build.

A build costs the generators it creates, the sum of 2^r over the
window's r-circle resolutions, so that count, not the crossing count,
is held to ``MAX_GENERATORS``, and ``TooLarge`` is raised before any
column is allocated.

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
S2_WINDOW = (-1, 0)   # the homological degrees qgr reads


@dataclass
class CanonicalClass:
    """A Gornik/Lee canonical cycle supported at the oriented resolution."""
    label: int                  # global root label, +1 or -1
    circle_labels: tuple        # per-Seifert-circle value in {+1, -1}
    chain: dict                 # basis index -> integer coefficient


@dataclass
class HClass:
    """Homogeneous-parity piece of the canonical generators."""
    p: int                      # residue in {0, 1}
    chain: dict


class FilteredComplex:
    """The complex in homological degrees ``window = (lo, hi)``.

    The default window is the whole cube.  A narrower one builds only the
    resolutions with ``lo <= h <= hi`` and the differential out of degrees
    ``lo..hi-1``; cycle checks apply the differential on demand, so
    they work in every built degree, ``hi`` included.  Questions that need a degree outside the window raise
    ``ValueError``.  A degree outside the cube is empty, so it never needs
    building: the window is clipped to the cube's degrees.
    """

    def __init__(self, diagram, window=None):
        diagram.check_planar()
        self.diagram = diagram
        self.n = diagram.n_crossings
        self.writhe = diagram.writhe
        self.n_minus = sum(1 for x in diagram.crossings if x.sign < 0)
        self.degrees = (-self.n_minus, self.n - self.n_minus)  # the cube's
        lo, hi = self.degrees if window is None else window
        if lo > hi:
            raise ValueError(f"empty homological window {window}")
        self.window = (max(lo, self.degrees[0]), min(hi, self.degrees[1]))
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self):
        d = self.diagram
        lo, hi = self.window
        # t -> tuple of frozensets, for t in the window and for the
        # neighbours an on-demand cycle check has visited
        self.circles = {}
        self.start = {}        # t -> first basis index, for t in the window
        self.basis_t = []      # per basis element
        self.basis_subset = []
        self.basis_h = []
        self.basis_q = []
        self.by_h = {}
        popcounts = range(lo + self.n_minus, hi + self.n_minus + 1)  # |t|
        # every resolution holds at least one generator
        resolutions = sum(math.comb(self.n, k) for k in popcounts)
        if resolutions > MAX_GENERATORS:
            raise TooLarge(f"{resolutions} resolutions in degrees {lo}..{hi} "
                           f"exceed the budget of {MAX_GENERATORS} generators")
        # the window's resolutions in ascending t, the order of the basis
        masks = sorted(sum(1 << i for i in ones) for k in popcounts
                       for ones in itertools.combinations(range(self.n), k))
        idx = 0
        for t in masks:
            h = t.bit_count() - self.n_minus
            self.circles[t] = d.circles(t)
            r = len(self.circles[t])
            self.start[t] = idx
            size = 1 << r
            if idx + size > MAX_GENERATORS:
                raise TooLarge(f"at least {idx + size} generators in degrees "
                               f"{lo}..{hi} exceed the budget of {MAX_GENERATORS}")
            self.basis_t.extend([t] * size)
            self.basis_subset.extend(range(size))
            self.basis_h.extend([h] * size)
            q0 = -r - self.writhe - h
            self.basis_q.extend([q0 + 2 * s.bit_count() for s in range(size)])
            self.by_h.setdefault(h, []).extend(range(idx, idx + size))
            idx += size
        self.dim = idx

        # differential columns: basis index -> list of (row, coeff)
        self.columns = [[] for _ in range(self.dim)]
        for t, first in self.start.items():
            if bin(t).count("1") - self.n_minus == hi:
                continue
            cols = self.columns[first:first + (1 << len(self.circles[t]))]
            for t2, sign, images in self._edge_maps(t):
                offset = self.start[t2]
                for image in images:
                    for col, out in zip(cols, image):
                        col.append((offset + out, sign))

    def _require(self, a, b, question):
        """Raise ValueError unless degrees ``a..b`` are all built."""
        lo, hi = self.window
        h_min, h_max = self.degrees
        for h in range(a, b + 1):
            if not (lo <= h <= hi or not h_min <= h <= h_max):
                raise ValueError(
                    f"{question} needs homological degrees {a}..{b}, "
                    f"but the complex holds only {lo}..{hi}")

    def stats(self):
        """Sizes of what was built."""
        return {
            "window": list(self.window),
            "resolutions": len(self.start),
            "dim": self.dim,
            "nnz": sum(len(c) for c in self.columns),
            "boundary_cols": len(self.by_h.get(-1, ())),
        }

    def _circles(self, t):
        """The circles of resolution t, memoized on the complex."""
        if t not in self.circles:
            self.circles[t] = self.diagram.circles(t)
        return self.circles[t]

    def _edge_maps(self, t):
        """The cube edges out of resolution t, as (t2, sign, images).

        Each image list holds, for every subset s of t's circles, the
        subset of t2's circles that one term of the edge map sends s to;
        a merge has one term, a split two.  A list is built by doubling,
        once per source circle: that circle's bit flips the bit of the
        target circle it lands on.  XOR makes the two merged circles
        multiply (1*1 = x*x = 1, 1*x = x), and for a split it turns the
        two terms of D(1) into those of D(x).
        """
        src = self._circles(t)
        for i, x in enumerate(self.diagram.crossings):
            if (t >> i) & 1:
                continue
            t2 = t | (1 << i)
            dst = self._circles(t2)
            sign = -1 if bin(t & ((1 << i) - 1)).count("1") % 2 else 1
            touched = set(x.edges)
            dst_index = {c: k for k, c in enumerate(dst)}
            dst_active = [k for k, c in enumerate(dst) if c & touched]
            # the merged circle, or the second circle of a split; circles
            # untouched by crossing i are carried across
            flips = [1 << (dst_active[-1] if c & touched else dst_index[c])
                     for c in src]
            # the planarity check in __init__ rules out anything but a
            # merge into one circle or a split into two
            starts = (0,) if len(dst_active) == 1 else (
                1 << dst_active[0], 1 << dst_active[1])
            images = []
            for first in starts:
                image = [first]
                for m in flips:
                    image += [out ^ m for out in image]
                images.append(image)
            yield t2, sign, images

    # -- chain-level helpers ----------------------------------------------

    def apply_differential(self, chain):
        out = {}
        for i, coeff in chain.items():
            for row, c in self.columns[i]:
                out[row] = out.get(row, 0) + coeff * c
        return {k: v for k, v in out.items() if v}

    def check_d_squared(self):
        for i in range(self.dim):
            if self.apply_differential(dict(self.columns[i])):
                return False
        return True

    def _is_cycle(self, chain):
        """Whether d(chain) = 0.

        d is applied on demand from the edge maps out of the chain's own
        resolutions, so the check needs no column built: it works in
        every degree of every window, the window's top included.
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
        self._require(h, h + 1, f"the boundary map out of degree {h}")
        return [dict(self.columns[i]) for i in self.by_h.get(h, [])]

    def homology_rank(self, h):
        dim_h = len(self.by_h.get(h, []))
        rank_out = linalg.rank(self.boundary_columns(h))
        rank_in = linalg.rank(self.boundary_columns(h - 1))
        return dim_h - rank_out - rank_in

    def homology_dimension(self):
        self._require(*self.degrees, "homology_dimension")
        return sum(self.homology_rank(h) for h in self.by_h)

    # -- the quantum filtration grading ------------------------------------

    def qgr(self, chain):
        """Smallest filtration level containing the class of ``chain``.

        ``chain`` must be a cycle in homological degree 0.  Its residue
        modulo the cached boundary echelon of ``_filtered`` leads with a
        highest-q term no boundary can cancel; that term's q is the level,
        and an empty residue means the chain is a boundary.
        """
        if not chain:
            raise ZeroClass("the zero chain has no filtration grading")
        self._require(-1, 0, "qgr")
        if any(self.basis_h[i] for i in chain):
            raise NotACycle("chain is not homogeneous of homological degree 0")
        if not self._is_cycle(chain):
            raise NotACycle("chain is not a cycle")

        order, position, ech = self._filtered
        residue = ech.reduce({position[i]: v for i, v in chain.items()})
        if not residue:
            raise ZeroClass("chain is a boundary")
        return self.basis_q[order[min(residue)]]

    @cached_property
    def _filtered(self):
        """Degree-0 rows by (q, index) descending, their positions, and the
        echelon of the degree -1 boundaries in that numbering, so every
        pivot is a highest-q term.  Any order within a q level is valid;
        on the benchmark braids, descending index leaves 3-9x fewer
        echelon nonzeros than ascending."""
        order = sorted(self.by_h.get(0, ()),
                       key=lambda i: (self.basis_q[i], i), reverse=True)
        position = {i: k for k, i in enumerate(order)}
        ech = linalg.Echelon()
        for i in self.by_h.get(-1, ()):
            ech.add({position[row]: c for row, c in self.columns[i]})
        return order, position, ech

    # -- canonical generators ----------------------------------------------

    @property
    def oriented_t(self):
        return self.diagram.oriented_mask

    def seifert_coloring(self):
        """2-coloring of the Seifert graph by nesting parity.

        The Seifert graph of a planar diagram is bipartite; a wrong
        coloring would give a chain that ``_is_cycle`` rejects."""
        t = self.oriented_t
        circ = self.circles[t]
        where = {}
        for k, c in enumerate(circ):
            for e in c:
                where[e] = k
        adj = {k: set() for k in range(len(circ))}
        for i, x in enumerate(self.diagram.crossings):
            (u1, _), (u2, _) = x.smoothing((t >> i) & 1)
            k1, k2 = where[u1], where[u2]
            adj[k1].add(k2)
            adj[k2].add(k1)
        color = {}
        for root in range(len(circ)):
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
        return [color[k] for k in range(len(circ))]

    def canonical_cycle(self, label):
        """The constant-label canonical cycle, a product over Seifert
        circles of (x_c + label_c) with alternating per-circle labels."""
        if label not in (1, -1):
            raise ValueError("label must be +1 or -1")
        self._require(0, 0, "canonical_cycle")
        coloring = self.seifert_coloring()
        eps = [label * (1 if col == 0 else -1) for col in coloring]
        chain = self._product_chain(eps)
        cls = CanonicalClass(label=label, circle_labels=tuple(eps), chain=chain)
        if not self._is_cycle(chain):
            raise InconsistentDiagram("canonical chain is not a cycle")
        return cls

    def _product_chain(self, eps, parity=None):
        t = self.oriented_t
        r = len(self.circles[t])
        chain = {}
        for subset in range(1 << r):
            if parity is not None and bin(subset).count("1") % 2 != parity:
                continue
            coeff = 1
            for k in range(r):
                if not (subset >> k) & 1:
                    coeff *= eps[k]
            chain[self.start[t] + subset] = coeff
        return chain

    def h_cycle(self, p):
        """Parity-p piece: all squarefree monomials of degree = p (mod 2),
        signed so that the +1 canonical cycle equals h_0 + h_1."""
        if p not in (0, 1):
            raise ValueError("p must be 0 or 1")
        self._require(0, 0, "h_cycle")
        coloring = self.seifert_coloring()
        eps = [1 if col == 0 else -1 for col in coloring]
        chain = self._product_chain(eps, parity=p)
        if not self._is_cycle(chain):
            raise InconsistentDiagram("h-chain is not a cycle")
        return HClass(p=p, chain=chain)

    def low_generator(self):
        """A parity class whose filtration level certifies the spread
        below the canonical generator."""
        cycles = [self.h_cycle(p) for p in (0, 1)]
        level, p = min((self.qgr(c.chain), c.p) for c in cycles)
        return p, cycles[p], level

    # -- top-level invariant -------------------------------------------------

    def s2(self):
        return self.qgr(self.canonical_cycle(1).chain) - 1


def s2(diagram):
    """The n=2 concordance invariant of the link presented by ``diagram``."""
    if diagram.n_components == 0:
        raise ValueError("s2 of the empty link is undefined")
    return FilteredComplex(diagram, window=S2_WINDOW).s2()

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import diagram as dg
from linksn import lee, linalg
from linksn.errors import InconsistentDiagram, NotACycle, TooLarge, ZeroClass


def complex_for(word, strands):
    return lee.FilteredComplex(dg.parse_braid(word, strands), whole=True)


def test_s2_known_values():
    assert lee.s2(dg.unknot()) == 0
    assert lee.s2(dg.unlink(3)) == 2
    assert lee.s2(dg.parse_braid([1, 1], 2)) == -1
    assert lee.s2(dg.parse_braid([-1, -1], 2)) == 1
    assert lee.s2(dg.parse_braid([1, 1, 1], 2)) == -2
    assert lee.s2(dg.parse_braid([-1, -1, -1], 2)) == 2
    assert lee.s2(dg.parse_braid([1, -2, 1, -2], 3)) == 0


def test_s2_torus_links():
    assert lee.s2(dg.torus_link(2, 4)) == -3
    assert lee.s2(dg.torus_link(2, 5)) == -4
    assert lee.s2(dg.torus_link(3, 3)) == -4


def test_homology_dimension_is_two_to_the_components():
    for word, strands in [([1, 1, 1], 2), ([1, 1], 2), ([1, -2, 1, -2], 3),
                          ([1, 1, 1, 1], 2)]:
        cx = complex_for(word, strands)
        assert cx.homology_dimension() == 2 ** cx.diagram.n_components


def test_d_squared_zero():
    for word, strands in [([1, 1, 1], 2), ([-1, -1], 2), ([1, -2, 1, -2], 3)]:
        assert complex_for(word, strands).check_d_squared()


def test_canonical_cycle_is_cycle():
    cx = complex_for([1, 1, 1], 2)
    for label in (1, -1):
        chain = cx.canonical_cycle(label)
        assert not reference_d(cx, chain)
    with pytest.raises(ValueError):
        cx.canonical_cycle(2)


def test_h_cycles_sum_to_canonical():
    # the figure eight closes 3 strands, the trefoil 2: r odd and even
    for word, strands in [([1, -2, 1, -2], 3), ([1, 1, 1], 2)]:
        cx = complex_for(word, strands)
        h0 = cx.h_cycle(0)
        h1 = cx.h_cycle(1)
        g = cx.canonical_cycle(1)
        total = dict(h0)
        for k, v in h1.items():
            total[k] = total.get(k, 0) + v
        assert {k: v for k, v in total.items() if v} == g
        # each piece is g's part in one q mod 4 block, and the blocks differ
        q_of = reference_q(cx)
        blocks = [{q_of[i] % 4 for i in h} for h in (h0, h1)]
        assert [len(b) for b in blocks] == [1, 1] and blocks[0] != blocks[1]
        r = len(cx.diagram.seifert_circles)
        assert r == strands
        assert cx.canonical_cycle(-1) == {
            i: (-1) ** r * (h0.get(i, 0) - h1.get(i, 0)) for i in g}


def boundary_columns(cx, h):
    """Images of the basis elements in homological degree h: the
    uncleared reference for the ranks of the whole complex."""
    return [dict(cx.columns[i]) for i in cx.by_h.get(h, [])]


def test_homology_dimension_ranks_each_boundary_map_once(monkeypatch):
    cx = complex_for([1, -2, 1, -2], 3)       # degrees -2..2
    degrees = range(cx.degrees[0], cx.degrees[1] + 1)
    ranks = [linalg.rank(boundary_columns(cx, h)) for h in degrees]
    made = []

    class Recording(linalg.Echelon):
        def __init__(self):
            super().__init__()
            self.grew = []
            made.append(self)

        def add(self, vec):
            self.grew.append(super().add(vec))
            return self.grew[-1]
    monkeypatch.setattr(linalg, "Echelon", Recording)
    assert cx.homology_dimension() == 2
    # one echelon per degree, the maps out of -2..1 and the zero map out of 2
    assert [e.rank for e in made] == ranks
    # a pivot of the map out of h skips one column of the map out of h + 1
    skipped = [len(cx.by_h[h]) - len(e.grew) for h, e in zip(degrees, made)]
    assert skipped == [0] + ranks[:-1]
    # the adds that reduce to zero are the homology
    assert sum(not grew for e in made for grew in e.grew) == 2


def test_qgr_rejects_non_cycles():
    cx = complex_for([1, 1, 1], 2)
    # a lone basis element in h = 0 is generally not a cycle
    bad = None
    for i in cx.by_h[0]:
        if reference_d(cx, {i: 1}):
            bad = i
            break
    assert bad is not None
    with pytest.raises(NotACycle):
        cx.qgr({bad: 1})
    with pytest.raises(ZeroClass):
        cx.qgr({})


def test_qgr_rejects_boundaries():
    cx = complex_for([1, -2, 1, -2], 3)
    boundary = None
    for i in cx.by_h[-1]:
        img = dict(cx.columns[i])
        if img:
            boundary = img
            break
    assert boundary is not None
    with pytest.raises(ZeroClass):
        cx.qgr(boundary)


def test_qgr_wrong_degree():
    cx = complex_for([1, 1, 1], 2)
    i = cx.by_h[1][0]
    with pytest.raises(NotACycle):
        cx.qgr({i: 1})


def test_qgr_refuses_indices_outside_the_build():
    # a negative index would name a generator counted from the end of the
    # basis, under a cut key of its own: g with its last term written as
    # last - dim would get level 2, where g has level 1
    cx = lee.FilteredComplex(dg.parse_braid([1, -2, 1, -2], 3))
    g = cx.canonical_cycle(1)
    last = max(g)
    alias = {i: v for i, v in g.items() if i != last}
    alias[last - cx.dim] = g[last]
    for chain in {-1: 1}, {cx.dim: 1}, alias:
        with pytest.raises(NotACycle):
            cx.qgr(chain)
    assert cx.qgr(g) == 1


def test_size_limit():
    # the full cube of T(2, 21) has 2^21 resolutions; degrees -1..0 one
    with pytest.raises(TooLarge, match="resolutions"):
        lee.FilteredComplex(dg.torus_link(2, 21), whole=True)
    assert lee.s2(dg.torus_link(2, 21)) == -20


def test_budget_admits_exactly_max_generators(monkeypatch):
    d = dg.parse_braid([1, -2, 1, -2], 3)       # 34 generators in -1..0
    monkeypatch.setattr(lee, "MAX_GENERATORS", 34)
    assert lee.FilteredComplex(d).dim == 34
    monkeypatch.setattr(lee, "MAX_GENERATORS", 33)
    with pytest.raises(TooLarge, match="34 generators"):
        lee.FilteredComplex(d)


def test_budget_counts_resolutions_before_any_circle(monkeypatch):
    budget = lee.MAX_GENERATORS
    small = dg.parse_braid([1, -1] * 6, 2)     # 1 716 resolutions in -1..0
    large = dg.parse_braid([1, -1] * 15, 2)    # 300 540 195 resolutions
    calls = []
    labels = dg.LinkDiagram.circle_labels
    monkeypatch.setattr(dg.LinkDiagram, "circle_labels",
                        lambda self, t: calls.append(t) or labels(self, t))
    monkeypatch.setattr(lee, "MAX_GENERATORS", 1715)
    with pytest.raises(TooLarge, match="1716 resolutions"):
        lee.s2(small)
    assert calls == []
    monkeypatch.setattr(lee, "MAX_GENERATORS", budget)
    with pytest.raises(TooLarge, match="300540195 resolutions"):
        lee.s2(large)
    assert calls == []
    # as many resolutions as the budget pass the count, not the build
    monkeypatch.setattr(lee, "MAX_GENERATORS", 1716)
    with pytest.raises(TooLarge, match="at least"):
        lee.s2(small)


def test_budget_stops_the_build_before_any_column(monkeypatch):
    calls = []
    edge_maps = lee.FilteredComplex._edge_maps
    monkeypatch.setattr(lee.FilteredComplex, "_edge_maps",
                        lambda self, t: calls.append(t) or edge_maps(self, t))
    budget = lee.MAX_GENERATORS
    monkeypatch.setattr(lee, "MAX_GENERATORS", 33)
    with pytest.raises(TooLarge):
        lee.s2(dg.parse_braid([1, -2, 1, -2], 3))
    assert calls == []
    # 16 crossings alternating in sign: degrees -1..0 hold 24 310
    # resolutions and 16 873 748 generators
    monkeypatch.setattr(lee, "MAX_GENERATORS", budget)
    with pytest.raises(TooLarge, match="generators"):
        lee.s2(dg.parse_braid([1, -1] * 8, 2))
    assert calls == []


def test_low_generator():
    cx = complex_for([1, 1, 1], 2)
    p, h, level = cx.low_generator()
    assert p in (0, 1)
    assert not reference_d(cx, h)
    assert level <= cx.qgr(cx.canonical_cycle(1))


def test_empty_link_rejected():
    with pytest.raises(ValueError):
        lee.s2(dg.LinkDiagram())


def test_nonplanar_pd_rejected():
    # splicing two crossings into non-adjacent arcs gives a PD that is
    # orientation-consistent but has no planar embedding
    from linksn import movie as mv
    bad = mv.apply_move(dg.parse_braid([1, 1, 1], 2),
                        mv.Move("R2", edges=(1, 3)))
    with pytest.raises(InconsistentDiagram):
        lee.s2(bad)


def test_mirror_negates_s2():
    for word, strands in [([1, 1, 1], 2), ([1, 1], 2)]:
        d = dg.parse_braid(word, strands)
        m = dg.mirror(d)
        window = 2 * d.n_components - 2
        total = lee.s2(d) + lee.s2(m)
        assert 0 <= total <= window


def reference_generators(cx):
    """(t, subset) of every basis element, in basis order, read off what
    the build stores: the resolutions in the order of their first
    indices, ``start``, each with the 2^r subsets of its r circles, read
    off its ``labels``."""
    generators = []
    for t in sorted(cx.start, key=cx.start.get):
        r = max(cx.labels[t], default=-1) + 1
        generators += [(t, s) for s in range(1 << r)]
    assert len(generators) == cx.dim
    return generators


def reference_q(cx):
    """q of every basis element, 2|s| - r - w - h for subset s of a
    resolution of r circles, in basis order."""
    q_of = []
    for t, s in reference_generators(cx):
        r = max(cx.labels[t], default=-1) + 1
        h = bin(t).count("1") - cx.n_minus
        q_of.append(2 * bin(s).count("1") - r - cx.writhe - h)
    return q_of


def reference_qgr(cx, chain):
    """The level scan: the class reaches level j iff the part of the chain
    above j lies in the span of the parts of the boundaries above j."""
    boundaries = [dict(cx.columns[i]) for i in cx.by_h.get(-1, ())]
    if linalg.in_span(boundaries, chain):
        raise ZeroClass("chain is a boundary")
    q_of = reference_q(cx)

    def above(vec, j):
        return {i: v for i, v in vec.items() if q_of[i] > j}

    best = max(q_of[i] for i in chain)
    levels = sorted({q_of[i] for i in cx.by_h[0]}, reverse=True)
    for j in (j for j in levels if j < best):
        cols = [pb for pb in (above(b, j) for b in boundaries) if pb]
        if not linalg.in_span(cols, above(chain, j)):
            break
        best = j
    return best


def level_or_zero(qgr, chain):
    try:
        return qgr(chain)
    except ZeroClass:
        return None


def mixed_braids(max_size):
    return st.integers(2, 4).flatmap(lambda strands: st.tuples(
        st.lists(st.integers(1 - strands, strands - 1).filter(bool),
                 min_size=1, max_size=max_size),
        st.just(strands)))


@settings(max_examples=60, deadline=None)
@given(mixed_braids(7))
def test_qgr_matches_level_scan(braid):
    cx = complex_for(*braid)
    chains = [cx.canonical_cycle(label) for label in (1, -1)]
    chains += [cx.h_cycle(p) for p in (0, 1)]
    for chain in chains:
        assert (level_or_zero(cx.qgr, chain)
                == level_or_zero(lambda c: reference_qgr(cx, c), chain))


def knot_braids(min_size, max_size):
    """Braid words on 2-4 strands whose closure is a knot."""
    def closes_to_a_knot(braid):
        word, strands = braid
        perm = list(range(strands))
        for letter in word:
            i = abs(letter) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        k, length = perm[0], 1
        while k:
            k, length = perm[k], length + 1
        return length == strands
    return st.integers(2, 4).flatmap(lambda strands: st.tuples(
        st.lists(st.integers(1 - strands, strands - 1).filter(bool),
                 min_size=min_size, max_size=max_size),
        st.just(strands))).filter(closes_to_a_knot)


@settings(max_examples=150, deadline=None)
@given(knot_braids(3, 10))
def test_s2_obeys_the_slice_bennequin_bounds(braid):
    # an oracle independent of the engine: a knot closing a b-strand braid
    # of writhe w has 1 - b - w <= s_2 <= b - w - 1 in this sign, where a
    # positive braid's closure meets the upper bound
    word, strands = braid
    w = sum(1 if letter > 0 else -1 for letter in word)
    assert 1 - strands - w <= lee.s2(dg.parse_braid(word, strands)) \
        <= strands - w - 1


def count_echelons(monkeypatch):
    built = []
    init = linalg.Echelon.__init__

    def counted(self):
        built.append(self)
        init(self)
    monkeypatch.setattr(linalg.Echelon, "__init__", counted)
    return built


def test_one_echelon_per_cut_tried(monkeypatch):
    cx = complex_for([1, -2, 1, -2, 1], 3)
    assert cx.by_h[-1]
    built = count_echelons(monkeypatch)
    cx.s2()
    assert len(built) == cx.stats()["cuts_tried"] >= 1
    cx.low_generator()
    tried = cx.stats()["cuts_tried"]
    assert len(built) == tried
    # the cached cut answers every question whose level lies at or above it
    for label in (1, -1):
        cx.qgr(cx.canonical_cycle(label))
    cx.low_generator()
    cx.s2()
    assert len(built) == cx.stats()["cuts_tried"] == tried


NP_3S10C_2 = ([-1, 2, -1, -2, 2, -2, -1, 1, -2, -1], 3)


def test_qgr_deepens_the_cut_below_the_chains_top(monkeypatch):
    d = dg.parse_braid(*NP_3S10C_2)
    cx = lee.FilteredComplex(d)
    g = cx.canonical_cycle(1)
    q_of = reference_q(cx)
    assert max(q_of[i] for i in g) == 7
    built = count_echelons(monkeypatch)
    assert cx.qgr(g) == 3
    # cuts at 7 and 5 leave no residue; the cut at 3 does.  7 and 3 cut
    # the block q = 3 mod 4, and 5 the block q = 1 mod 4
    assert len(built) == 3
    assert {k: cx.stats()[k] for k in ("cut", "cuts_tried")} == {
        "cut": [5, 3], "cuts_tried": 3}
    assert cx.s2() == 2 and len(built) == 3
    monkeypatch.undo()
    assert reference_qgr(cx, g) == 3


def test_qgr_on_the_s2_window_never_builds_the_differential(monkeypatch):
    from linksn import verify

    def refuse(cx):
        raise AssertionError("the full differential was built")
    monkeypatch.setattr(lee.FilteredComplex, "columns", property(refuse))
    for word, strands in ([1, -2, 1, -2, 1], 3), NP_3S10C_2, ([1, 1, 1], 2):
        d = dg.parse_braid(word, strands)
        cx = lee.FilteredComplex(d)
        s2_view(cx)
        cx.stats()
        lee.s2(d)
    for suite in ("known-values", "label-independence", "max-identity",
                  "eq4.1", "low-generator"):
        checks, failures = verify.PROPERTIES[suite]()
        assert checks and not failures


# -- the s2 complex and the whole cube ----------------------------------------


def s2_view(cx):
    """What s2 reads off a complex: s2, the low generator's parity and
    level, and qgr of both canonical labels."""
    p, _, level = cx.low_generator()
    labels = [level_or_zero(cx.qgr, cx.canonical_cycle(label))
              for label in (1, -1)]
    return cx.s2(), p, level, labels


@settings(max_examples=40, deadline=None)
@given(mixed_braids(8))
def test_window_matches_full_cube(braid):
    # the s2 complex, degrees -1..0, answers what s2 reads as the whole
    # cube does
    d = dg.parse_braid(*braid)
    full = lee.FilteredComplex(d, whole=True)
    narrow = lee.FilteredComplex(d)
    assert lee.s2(d) == full.s2()
    assert s2_view(narrow) == s2_view(full)
    # the basis by degree, then by t, then by subset
    order = reference_generators(narrow)
    assert order == sorted(order, key=lambda g: (g[0].bit_count(), g))
    assert narrow.built == (max(-1, full.degrees[0]), 0)
    assert narrow.dim == sum(len(full.by_h.get(h, ())) for h in (-1, 0))
    # its differential is the map from degree -1 into degree 0
    full_order = reference_generators(full)
    for i, (t, s) in enumerate(order):
        expected = (full.columns[full.start[t] + s]
                    if i in narrow.by_h.get(-1, ()) else [])
        assert ([(order[row], c) for row, c in narrow.columns[i]]
                == [(full_order[row], c) for row, c in expected])
    assert narrow.stats()["nnz"] == sum(map(len, narrow.columns))


def test_narrow_cycle_check_reaches_out_of_the_window():
    # in the s2 complex the images of degree-0 chains lie in degree 1,
    # which is not built; qgr must still tell cycles from non-cycles
    d = dg.parse_braid([1, -2, 1, -2], 3)
    full = lee.FilteredComplex(d, whole=True)
    narrow = lee.FilteredComplex(d)
    assert narrow.built == (-1, 0) and 1 not in narrow.by_h
    g = narrow.canonical_cycle(1)
    generators = reference_generators(full)
    columns = reference_columns(full)
    rejected = 0
    for i in full.by_h[0]:
        image = apply_columns(columns, {i: 1})
        t, s = generators[i]
        j = narrow.start[t] + s
        if not image:
            continue
        assert all(row in full.by_h[1] for row in image)
        rejected += 1
        with pytest.raises(NotACycle):
            narrow.qgr({j: 1})
        with pytest.raises(NotACycle):
            narrow.qgr({**g, j: g.get(j, 0) + 1})
    assert rejected > 0
    # the terms of a cycle's images cancel across its resolutions
    assert narrow.qgr(g) == full.qgr(full.canonical_cycle(1))


def test_cycle_checks_memoize_neighbouring_circles(monkeypatch):
    d = dg.parse_braid(*NP_3S10C_2)
    calls = []
    labels = d.circle_labels
    monkeypatch.setattr(d, "circle_labels",
                        lambda t: calls.append(t) or labels(t))

    def count(t):
        return max(labels(t)) + 1

    def merged_from(t, flips):
        """Whether a neighbour t ^ (1 << i), i a bit of flips, has one
        circle more than t: its labels give t's."""
        return any(count(t ^ 1 << i) > count(t)
                   for i in range(d.n_crossings) if flips >> i & 1)
    cx = lee.FilteredComplex(d)
    # the build walks its lowest degree, and above it only a resolution
    # no neighbour one degree below merges into
    lowest = cx.n_minus - 1
    walked = [t for t in cx.start
              if t.bit_count() == lowest or not merged_from(t, t)]
    assert calls == walked
    assert 0 < len(walked) < cx.stats()["resolutions"]
    del calls[:]
    # every edge out of the oriented resolution merges two Seifert
    # circles, which the source's labels show: no neighbour is labelled
    cx.canonical_cycle(1)
    cx.s2()
    cx.low_generator()
    # each cut tried walks, for clearing, only the degree -2 resolutions
    # that split into no degree -1 neighbour, and keeps none of their
    # labels
    every = (1 << d.n_crossings) - 1
    below = [t for t in range(every + 1) if t.bit_count() == lowest - 1]
    lone = [t for t in below if not merged_from(t, ~t & every)]
    assert lone and len(lone) < len(below)
    assert not any(t in cx.labels for t in calls)
    assert sorted(calls) == sorted(lone * cx.stats()["cuts_tried"])
    # a cycle check out of a degree-0 resolution labels the neighbours
    # its edges split into, once each, and no other
    top = [(t, first) for t, first in cx.start.items()
           if first in cx.by_h[0]]
    splits = {t | 1 << i for t, _ in top for i in range(d.n_crossings)
              if not (t >> i) & 1 and count(t | 1 << i) > count(t)}
    assert splits and not splits & set(cx.start)
    del calls[:]
    for _ in range(2):
        for t, first in top:
            cx._is_cycle(cx._by_resolution({first: 1}))
    assert sorted(calls) == sorted(splits)
    assert all(t in cx.labels for t in splits)


@settings(max_examples=60, deadline=None)
@given(mixed_braids(8), st.integers(0, 2))
def test_merged_labels_match_a_walk(braid, loops):
    """Both builds: every stored label string is the walk's, and so are
    the degree -2 labels that clearing takes from degree -1."""
    d = dg.disjoint_union(dg.unlink(loops), dg.parse_braid(*braid))
    every = (1 << d.n_crossings) - 1
    for cx in lee.FilteredComplex(d), lee.FilteredComplex(d, whole=True):
        cx.s2()     # its cycle checks label the neighbours they split into
        for t, labels in cx.labels.items():
            assert type(labels) is bytes
            assert labels == bytes(d.circle_labels(t))
        for t in range(every + 1):
            if t.bit_count() == cx.n_minus - 2:
                assert (bytes(cx._resolve(t, ~t & every))
                        == bytes(d.circle_labels(t)))


def test_a_walk_past_255_circles_raises_too_large_first():
    # labels are stored as bytes; a resolution of more than 255 circles
    # holds over 2^255 generators, so the budget refuses it first
    d = dg.disjoint_union(dg.parse_braid([1], 2), dg.unlink(300))
    for whole, degrees in (False, "0..0"), (True, "0..1"):
        with pytest.raises(TooLarge) as err:
            lee.FilteredComplex(d, whole=whole)
        assert str(err.value) == (
            f"at least 2^302 generators in degrees {degrees} exceed the "
            f"budget of {lee.MAX_GENERATORS}")


def test_cycles_need_degree_zero_only():
    # the figure eight's s2 complex holds degrees -1..0 of -2..2, the
    # trefoil's degree 0 alone: both give the whole cube's cycles
    def generators(cx, chain):
        index = reference_generators(cx)
        return {index[i]: v for i, v in chain.items()}
    for d in dg.parse_braid([1, -2, 1, -2], 3), dg.parse_braid([1, 1, 1], 2):
        narrow = lee.FilteredComplex(d)
        full = lee.FilteredComplex(d, whole=True)
        assert narrow.dim < full.dim
        for cycle in (lambda cx: cx.canonical_cycle(1),
                      lambda cx: cx.canonical_cycle(-1),
                      lambda cx: cx.h_cycle(0), lambda cx: cx.h_cycle(1)):
            assert (generators(narrow, cycle(narrow))
                    == generators(full, cycle(full)))


def reference_columns(cx):
    """The full cube's differential, one source subset at a time: carried
    circles copied bit by bit, the active ones multiplied or split."""
    columns = [[] for _ in range(cx.dim)]
    for t in sorted(cx.start):
        for i, x in enumerate(cx.diagram.crossings):
            if (t >> i) & 1:
                continue
            t2 = t | 1 << i
            src, dst = cx.diagram.circles(t), cx.diagram.circles(t2)
            sign = (-1) ** bin(t & ((1 << i) - 1)).count("1")
            src_active = [k for k, c in enumerate(src) if c & set(x.edges)]
            dst_active = [k for k, c in enumerate(dst) if c & set(x.edges)]
            carry = {k: dst.index(c) for k, c in enumerate(src)
                     if k not in src_active}
            for subset in range(1 << len(src)):
                base = sum(1 << k2 for k, k2 in carry.items()
                           if (subset >> k) & 1)
                if len(src_active) == 2:
                    e1, e2 = ((subset >> k) & 1 for k in src_active)
                    outs = [base | (e1 ^ e2) << dst_active[0]]
                elif not (subset >> src_active[0]) & 1:
                    outs = [base | 1 << k for k in dst_active]
                else:
                    outs = [base | 1 << dst_active[0] | 1 << dst_active[1],
                            base]
                columns[cx.start[t] + subset] += [
                    (cx.start[t2] + out, sign) for out in outs]
    return columns


def apply_columns(columns, chain):
    """d of ``chain``, read entry-wise from ``columns``, zeros dropped."""
    out = {}
    for i, coeff in chain.items():
        for row, c in columns[i]:
            out[row] = out.get(row, 0) + coeff * c
    return {k: v for k, v in out.items() if v}


def reference_d(cx, chain):
    """d of ``chain`` in the whole complex ``cx``, from the per-subset
    ``reference_columns``: a cycle oracle apart from the engine's."""
    return apply_columns(reference_columns(cx), chain)


def reference_d_squared(cx):
    """Whether d d = 0, entry-wise: d applied twice to every generator,
    read from ``columns``, which a corrupted image table or edge sign
    changes as it changes the checks."""
    columns = cx.columns
    return not any(apply_columns(columns, apply_columns(columns, {i: 1}))
                   for i in range(cx.dim))


@settings(max_examples=40, deadline=None)
@given(mixed_braids(7))
def test_doubled_edge_maps_match_the_per_subset_reference(braid):
    cx = complex_for(*braid)
    assert cx.columns == reference_columns(cx)
    # the layout: each degree one range, the ranges tiling the basis in
    # ascending h, and each resolution's q0, the q of its subset 0
    for c in cx, lee.FilteredComplex(cx.diagram):
        assert sorted(c.by_h) == list(range(c.built[0], c.built[1] + 1))
        assert [i for h in sorted(c.by_h) for i in c.by_h[h]] == list(
            range(c.dim))
        assert all(type(indices) is range for indices in c.by_h.values())
        seen = set()
        for i, (t, s) in enumerate(reference_generators(c)):
            r = max(c.labels[t]) + 1
            h = bin(t).count("1") - c.n_minus
            assert 0 <= s < 1 << r and c.start[t] + s == i
            assert i in c.by_h[h]
            assert c._q0(t) == -r - c.writhe - h
            seen.add((t, s))
        assert len(seen) == c.dim


@settings(max_examples=40, deadline=None)
@given(mixed_braids(7))
def test_an_edges_shape_gives_its_targets_q0(braid):
    """The cuts and their clearing read a target's q0 off the edge: a
    merge keeps q0 and a split lowers it by 2."""
    for cx in (complex_for(*braid),
               lee.FilteredComplex(dg.parse_braid(*braid))):
        q_of = reference_q(cx)
        for t, first in list(cx.start.items()):
            for t2, _, images in cx._edge_maps(t):
                if t2 in cx.start:
                    q0 = q_of[first]
                    assert (q_of[cx.start[t2]] == q0 + 2 - 2 * len(images)
                            == lee._target_q0(q0, images))


def test_window_build_keeps_nothing_per_generator():
    # the 16-crossing ROADMAP knot
    d = dg.parse_braid([1, -2, 1, -2, 1, 2, -1, 2, 1, -2, 1, 2, -1, 2, -1, 2],
                       3)
    cx = lee.FilteredComplex(d)
    assert cx.s2() == -2
    assert (cx.dim, len(cx.start)) == (238412, 12376)
    kept = {name: len(v) for name, v in vars(cx).items()
            if hasattr(v, "__len__")}
    assert max(kept.values()) < cx.dim, kept


def reference_edge_map(d, t, i):
    """The edge map that smooths crossing i out of resolution t, read off
    both resolutions' labels: each source circle lands where the target
    labels its smallest edge, and the split circle's second bit flips
    the split's higher circle."""
    slot_edges = d.slot_edges
    src, dst = d.circle_labels(t), d.circle_labels(t | 1 << i)
    smallest = []
    for e, k in enumerate(src):
        if k == len(smallest):
            smallest.append(e)
    a = slot_edges[4 * i]
    lo, hi = sorted((dst[a], dst[slot_edges[4 * i + 1]]))
    flips = [1 << dst[e] for e in smallest]
    if lo == hi:
        starts = (0,)
    else:
        flips[src[a]] = 1 << hi
        starts = (1 << lo, 1 << hi)
    images = []
    for first in starts:
        image = [first]
        for m in flips:
            image += [out ^ m for out in image]
        images.append(image)
    return images


def reference_edge_maps(cx, t):
    """``FilteredComplex._edge_maps`` from ``reference_edge_map``."""
    for i in range(cx.n):
        if not (t >> i) & 1:
            sign = (-1) ** bin(t & ((1 << i) - 1)).count("1")
            yield t | 1 << i, sign, reference_edge_map(cx.diagram, t, i)


@settings(max_examples=60, deadline=None)
@given(mixed_braids(6), st.integers(0, 2), st.booleans())
def test_keyed_edge_maps_match_the_smallest_edge_reference(braid, loops,
                                                          before):
    # crossing-free loops numbered below or above every crossed circle
    d = dg.parse_braid(*braid)
    if before:
        d = dg.disjoint_union(dg.unlink(loops), d)
    else:
        for _ in range(loops):
            d = dg.disjoint_union(d, dg.unknot())
    cx = lee.FilteredComplex(d, whole=True)
    for t in range(1 << d.n_crossings):
        assert (list(cx._edge_maps(t))
                == list(reference_edge_maps(cx, t)))


ENGINE_NONPOSITIVE = [([1, -2, 1, -2, 1, 2, -1, 2, 1, -2, 1, 2], 3),
                      ([1, 1, -2, 3, -1, -1, 3, -2, 3, 1], 4), NP_3S10C_2]


def test_keyed_edge_maps_give_the_reference_engine(monkeypatch):
    from linksn import verify

    def answers():
        out = []
        for d in diagrams:
            cx = lee.FilteredComplex(d)
            out.append((cx.s2(), cx.low_generator(), cx.stats(),
                        {c: (cut.level, cut.echelon.pivots)
                         for c, cut in cx._cuts.items()}))
        return out
    diagrams = [d for _, d, _ in verify.corpus() if d.n_components]
    diagrams += [dg.parse_braid(*braid) for braid in ENGINE_NONPOSITIVE]
    tables = []
    edge_map = lee._edge_map

    def counted(*shape):
        tables.append(shape)
        return edge_map(*shape)
    monkeypatch.setattr(lee, "_edge_map", counted)
    keyed = answers()
    assert tables and all(cuts for *_, cuts in keyed[-3:])
    # every reader of an edge's images (the differential, the cuts, their
    # clearing and the cycle checks) asks _shape for its key and _images
    # for its table: keyed by the edge (t, i), each is the reference's
    del tables[:]
    monkeypatch.setattr(lee.FilteredComplex, "_shape",
                        lambda self, src, r, i, t2: (t2 ^ 1 << i, i))
    monkeypatch.setattr(
        lee.FilteredComplex, "_images",
        lambda self, edge: reference_edge_map(self.diagram, *edge))
    assert answers() == keyed
    assert tables == []


def merges_or_splits_everywhere(d):
    """Reference planarity test, read from the circles themselves: every
    cube edge merges two circles into one or splits one into two."""
    circle_of = {}    # t -> {edge: index of its circle in d.circles(t)}

    def active(t, x):
        if t not in circle_of:
            circle_of[t] = {e: k for k, c in enumerate(d.circles(t))
                            for e in c}
        return len({circle_of[t][e] for e in x.edges})

    return all(sorted((active(t, x), active(t | 1 << i, x))) == [1, 2]
               for t in range(1 << d.n_crossings)
               for i, x in enumerate(d.crossings) if not (t >> i) & 1)


def test_window_rejects_r2_splices_like_the_reference():
    # the engine checks planarity by Euler's formula alone; every splice
    # it accepts merges or splits on every edge of its full cube, which
    # is what the edge maps assume
    from linksn import movie as mv
    from linksn import verify
    spliced = accepted = 0
    for _, d, _ in verify.corpus():
        if d.n_crossings > 6:
            continue
        for a in d.edges:
            for b in d.edges:
                if a == b:
                    continue
                d2 = mv.apply_move(d, mv.Move("R2", edges=(a, b)))
                spliced += 1
                try:
                    lee.FilteredComplex(d2)
                except InconsistentDiagram:
                    continue
                accepted += 1
                assert merges_or_splits_everywhere(d2), (d2, a, b)
    assert spliced > 1000 and 0 < accepted < spliced


def test_near_positive_build_stays_in_the_window():
    # one negative crossing: degrees -1..0 hold 1 + 41 of the 2^41
    # resolutions; a build that walked the whole cube would not finish
    word = [-1] + [2, 1] * 20
    d = dg.parse_braid(word, 3)
    cx = lee.FilteredComplex(d)
    assert cx.stats()["resolutions"] == 1 + 41
    # the positivization interval: s2 of the positive braid is
    # -(c - strands + 1), and one crossing change moves s2 by at most 2
    assert -41 <= cx.s2() <= -37


def test_whole_cube_questions_raise_on_the_s2_complex():
    # the figure eight's s2 complex does not build degree 1, where d of
    # its degree-0 generators lands; the questions that read every
    # degree raise rather than answer from the degrees built
    d = dg.parse_braid([1, -2, 1, -2], 3)      # degrees -2..2
    full = lee.FilteredComplex(d, whole=True)
    cx = lee.FilteredComplex(d)
    for question in (cx.check_d_squared,
                     lambda: cx.homology_rank(0),
                     cx.homology_dimension):
        with pytest.raises(ValueError, match="whole=True"):
            question()
    assert cx.s2() == full.s2() == 0
    assert full.check_d_squared() and full.homology_dimension() == 2


def test_window_clips_to_the_cube():
    # a positive diagram has no degree -1, so its s2 complex holds degree
    # 0 alone; the whole cube answers every degree, its end ones included
    cx = complex_for([1, 1, 1], 2)
    assert cx.built == cx.degrees == (0, 3)
    assert [cx.homology_rank(h) for h in range(4)] == [2, 0, 0, 0]
    narrow = lee.FilteredComplex(cx.diagram)
    assert narrow.built == (0, 0) and list(narrow.by_h) == [0]
    assert narrow.s2() == -2
    assert narrow.columns == [[]] * narrow.dim


def test_stats():
    d = dg.parse_braid([1, 1, 1], 2)
    # resolutions: r = 2 at h = 0, 1 at h = 1, 2 at h = 2, 3 at h = 3
    assert lee.FilteredComplex(d).stats() == {
        "degrees": [0, 0], "resolutions": 1, "dim": 4,
        "nnz": 0, "boundary_cols": 0,
        "cut": [], "cuts_tried": 0, "pivots": 0, "cut_nnz": 0, "cleared": 0}
    full = lee.FilteredComplex(d, whole=True).stats()
    assert full["degrees"] == [0, 3] and full["resolutions"] == 8
    # 3 merges out of h = 0, 6 splits out of h = 1, 3 out of h = 2
    assert full["dim"] == 30 and full["nnz"] == 3 * 4 + 6 * 4 + 3 * 8
    d = dg.parse_braid([1, -2, 1, -2], 3)
    for cx in lee.FilteredComplex(d), lee.FilteredComplex(d, whole=True):
        st_ = cx.stats()
        assert st_["nnz"] == sum(len(c) for c in cx.columns)
        assert st_["boundary_cols"] == len(cx.by_h[-1])
        assert st_["dim"] == sum(map(len, cx.by_h.values()))


def test_stats_report_the_cut_without_building_the_differential():
    d = dg.parse_braid(*NP_3S10C_2)
    cx = lee.FilteredComplex(d)
    cx.s2()
    st_ = cx.stats()
    assert "columns" not in cx.__dict__
    assert (st_["cut"], st_["cuts_tried"]) == ([5, 3], 3)
    # each cut's vectors: the degree -1 columns from sources in its
    # block at q >= its level, projected onto the degree-0 rows there;
    # the cut eliminates all but the cleared ones, at the same rank
    nnz = skipped = rank = cleared = 0
    q_of = reference_q(cx)
    for level in st_["cut"]:
        projected = {i: {row: c for row, c in cx.columns[i]
                         if q_of[row] >= level}
                     for i in cx.by_h[-1] if q_of[i] >= level
                     and (q_of[i] - level) % 4 == 0}
        gone = [i for i, c in enumerate(cx._cleared(level)) if c]
        nnz += sum(len(v) for v in projected.values())
        skipped += sum(len(projected[i]) for i in gone)
        rank += linalg.rank(projected.values())
        cleared += len(gone)
    assert st_["cut_nnz"] + skipped == nnz > 0
    assert st_["pivots"] == rank > 0
    assert st_["cleared"] == cleared > 0
    assert st_["nnz"] == sum(len(c) for c in cx.columns)

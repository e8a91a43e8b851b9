import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import diagram as dg
from linksn import lee, linalg
from linksn.errors import InconsistentDiagram, NotACycle, TooLarge, ZeroClass


def complex_for(word, strands):
    return lee.FilteredComplex(dg.parse_braid(word, strands))


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
        chain = cx.canonical_cycle(label).chain
        assert not cx.apply_differential(chain)
    with pytest.raises(ValueError):
        cx.canonical_cycle(2)


def test_h_cycles_sum_to_canonical():
    cx = complex_for([1, -2, 1, -2], 3)
    h0 = cx.h_cycle(0).chain
    h1 = cx.h_cycle(1).chain
    g = cx.canonical_cycle(1).chain
    total = dict(h0)
    for k, v in h1.items():
        total[k] = total.get(k, 0) + v
    assert {k: v for k, v in total.items() if v} == g


def test_qgr_rejects_non_cycles():
    cx = complex_for([1, 1, 1], 2)
    # a lone basis element in h = 0 is generally not a cycle
    bad = None
    for i in cx.by_h[0]:
        if cx.apply_differential({i: 1}):
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


def test_size_limit():
    # the full cube of T(2, 21) has 2^21 resolutions; its s2 window has one
    with pytest.raises(TooLarge, match="resolutions"):
        lee.FilteredComplex(dg.torus_link(2, 21))
    assert lee.s2(dg.torus_link(2, 21)) == -20


def test_budget_admits_exactly_max_generators(monkeypatch):
    d = dg.parse_braid([1, -2, 1, -2], 3)       # 34 generators in -1..0
    monkeypatch.setattr(lee, "MAX_GENERATORS", 34)
    assert lee.FilteredComplex(d, window=lee.S2_WINDOW).dim == 34
    monkeypatch.setattr(lee, "MAX_GENERATORS", 33)
    with pytest.raises(TooLarge, match="34 generators"):
        lee.FilteredComplex(d, window=lee.S2_WINDOW)


def test_budget_counts_resolutions_before_any_circle(monkeypatch):
    budget = lee.MAX_GENERATORS
    small = dg.parse_braid([1, -1] * 6, 2)     # 1 716 resolutions in -1..0
    large = dg.parse_braid([1, -1] * 15, 2)    # 300 540 195 resolutions
    calls = []
    circles = dg.LinkDiagram.circles
    monkeypatch.setattr(dg.LinkDiagram, "circles",
                        lambda self, t: calls.append(t) or circles(self, t))
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
    p, cls, level = cx.low_generator()
    assert p in (0, 1)
    assert not cx.apply_differential(cls.chain)
    assert level <= cx.qgr(cx.canonical_cycle(1).chain)


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


def reference_qgr(cx, chain):
    """The level scan: the class reaches level j iff the part of the chain
    above j lies in the span of the parts of the boundaries above j."""
    boundaries = cx.boundary_columns(-1)
    if linalg.in_span(boundaries, chain):
        raise ZeroClass("chain is a boundary")

    def above(vec, j):
        return {i: v for i, v in vec.items() if cx.basis_q[i] > j}

    best = max(cx.basis_q[i] for i in chain)
    levels = sorted({cx.basis_q[i] for i in cx.by_h[0]}, reverse=True)
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
    chains = [cx.canonical_cycle(label).chain for label in (1, -1)]
    chains += [cx.h_cycle(p).chain for p in (0, 1)]
    for chain in chains:
        assert (level_or_zero(cx.qgr, chain)
                == level_or_zero(lambda c: reference_qgr(cx, c), chain))


def test_one_boundary_echelon_per_complex(monkeypatch):
    cx = complex_for([1, -2, 1, -2, 1], 3)
    assert cx.by_h[-1]
    built = []
    init = linalg.Echelon.__init__

    def counted(self):
        built.append(self)
        init(self)
    monkeypatch.setattr(linalg.Echelon, "__init__", counted)
    cx.s2()
    cx.low_generator()
    for label in (1, -1):
        cx.qgr(cx.canonical_cycle(label).chain)
    assert len(built) == 1


# -- homological windows ------------------------------------------------------


def window_view(cx):
    """What s2 reads off a complex: s2, the low generator's parity and
    level, and qgr of both canonical labels."""
    p, _, level = cx.low_generator()
    labels = [level_or_zero(cx.qgr, cx.canonical_cycle(label).chain)
              for label in (1, -1)]
    return cx.s2(), p, level, labels


@settings(max_examples=40, deadline=None)
@given(mixed_braids(8))
def test_window_matches_full_cube(braid):
    # lee.s2's window (-1, 0), and (-1, 1), which also builds d out of 0
    d = dg.parse_braid(*braid)
    full = lee.FilteredComplex(d)
    assert lee.s2(d) == full.s2()
    for window in (lee.S2_WINDOW, (-1, 1)):
        narrow = lee.FilteredComplex(d, window=window)
        assert window_view(narrow) == window_view(full)
        # resolutions in ascending t, so basis indices do not depend on
        # the window
        assert narrow.basis_t == sorted(narrow.basis_t)
        assert narrow.dim <= full.dim
        # the window holds degrees lo..hi and the differential out of
        # lo..hi-1, clipped to the cube
        degrees = range(max(window[0], full.degrees[0]), window[1] + 1)
        assert narrow.dim == sum(len(full.by_h.get(h, ())) for h in degrees)
        assert narrow.stats()["nnz"] == sum(
            len(full.columns[i]) for h in degrees[:-1]
            for i in full.by_h.get(h, ()))


def test_narrow_cycle_check_reaches_out_of_the_window():
    # in (-1, 0) the images of degree-0 chains lie in degree 1, which is
    # not built; qgr must still tell cycles from non-cycles
    d = dg.parse_braid([1, -2, 1, -2], 3)
    full = lee.FilteredComplex(d)
    narrow = lee.FilteredComplex(d, window=lee.S2_WINDOW)
    assert narrow.window == (-1, 0) and 1 not in narrow.by_h
    g = narrow.canonical_cycle(1).chain
    rejected = 0
    for i in full.by_h[0]:
        image = full.apply_differential({i: 1})
        j = narrow.start[full.basis_t[i]] + full.basis_subset[i]
        if not image:
            continue
        assert {full.basis_h[row] for row in image} == {1}
        rejected += 1
        with pytest.raises(NotACycle):
            narrow.qgr({j: 1})
        with pytest.raises(NotACycle):
            narrow.qgr({**g, j: g.get(j, 0) + 1})
    assert rejected > 0
    # the terms of a cycle's images cancel across its resolutions
    assert narrow.qgr(g) == full.qgr(full.canonical_cycle(1).chain)


def test_cycle_checks_memoize_neighbouring_circles(monkeypatch):
    d = dg.parse_braid([1, -2, 1, -2, 1], 3)
    calls = []
    circles = d.circles
    monkeypatch.setattr(d, "circles",
                        lambda t: calls.append(t) or circles(t))
    cx = lee.FilteredComplex(d, window=lee.S2_WINDOW)
    built = len(calls)
    assert built == cx.stats()["resolutions"]
    cx.canonical_cycle(1)
    # the crossings out of the oriented resolution reach new neighbours
    neighbours = len(calls) - built
    assert neighbours == sum(
        1 for i in range(d.n_crossings)
        if not (d.oriented_mask >> i) & 1
        and (d.oriented_mask | 1 << i) not in cx.start)
    assert neighbours > 0
    cx.s2()
    cx.low_generator()
    assert len(calls) == built + neighbours


def test_cycles_need_degree_zero_only():
    d = dg.parse_braid([1, -2, 1, -2], 3)      # degrees -2..2
    zero = lee.FilteredComplex(d, window=(0, 0))
    full = lee.FilteredComplex(d)

    def generators(cx, chain):
        return {(cx.basis_t[i], cx.basis_subset[i]): v
                for i, v in chain.items()}
    for cycle in (lambda cx: cx.canonical_cycle(1),
                  lambda cx: cx.canonical_cycle(-1),
                  lambda cx: cx.h_cycle(0), lambda cx: cx.h_cycle(1)):
        assert (generators(zero, cycle(zero).chain)
                == generators(full, cycle(full).chain))
    with pytest.raises(ValueError):
        zero.qgr(zero.canonical_cycle(1).chain)
    above = lee.FilteredComplex(d, window=(1, 2))
    with pytest.raises(ValueError):
        above.canonical_cycle(1)


def reference_columns(cx):
    """The full cube's differential, one source subset at a time: carried
    circles copied bit by bit, the active ones multiplied or split."""
    columns = [[] for _ in range(cx.dim)]
    for t in sorted(cx.start):
        for i, x in enumerate(cx.diagram.crossings):
            if (t >> i) & 1:
                continue
            t2 = t | 1 << i
            src, dst = cx.circles[t], cx.circles[t2]
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


@settings(max_examples=40, deadline=None)
@given(mixed_braids(7))
def test_doubled_edge_maps_match_the_per_subset_reference(braid):
    cx = complex_for(*braid)
    assert cx.columns == reference_columns(cx)
    assert cx.basis_q == [
        2 * bin(s).count("1") - len(cx.circles[t]) - cx.writhe - h
        for t, s, h in zip(cx.basis_t, cx.basis_subset, cx.basis_h)]
    assert cx.basis_h == [bin(t).count("1") - cx.n_minus
                          for t in cx.basis_t]


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
                    lee.FilteredComplex(d2, window=lee.S2_WINDOW)
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
    cx = lee.FilteredComplex(d, window=lee.S2_WINDOW)
    assert cx.stats()["resolutions"] == 1 + 41
    # the positivization interval: s2 of the positive braid is
    # -(c - strands + 1), and one crossing change moves s2 by at most 2
    assert -41 <= cx.s2() <= -37


def test_window_questions_outside_it_raise():
    d = dg.parse_braid([1, -2, 1, -2], 3)      # degrees -2..2
    cx = lee.FilteredComplex(d, window=(-1, 1))
    assert cx.window == (-1, 1)
    assert cx.homology_rank(0) == lee.FilteredComplex(d).homology_rank(0)
    for question in (lambda: cx.homology_rank(-1),
                     lambda: cx.homology_rank(1),
                     cx.homology_dimension):
        with pytest.raises(ValueError):
            question()
    shifted = lee.FilteredComplex(d, window=(0, 2))
    with pytest.raises(ValueError):
        shifted.qgr(shifted.canonical_cycle(1).chain)
    with pytest.raises(ValueError):
        lee.FilteredComplex(d, window=(1, 0))


def test_window_clips_to_the_cube():
    # a positive diagram has no degree -1, so (-1, 1) answers qgr and
    # the full cube answers every degree, its end degrees included
    cx = complex_for([1, 1, 1], 2)
    assert cx.window == (0, 3)
    assert [cx.homology_rank(h) for h in range(4)] == [2, 0, 0, 0]
    narrow = lee.FilteredComplex(cx.diagram, window=(-1, 1))
    assert narrow.window == (0, 1)
    assert narrow.s2() == -2
    assert narrow.homology_rank(0) == 2


def test_stats():
    d = dg.parse_braid([1, 1, 1], 2)
    # resolutions: r = 2 at h = 0, 1 at h = 1, 2 at h = 2, 3 at h = 3
    assert lee.FilteredComplex(d, window=(-1, 1)).stats() == {
        "window": [0, 1], "resolutions": 4, "dim": 4 + 3 * 2,
        "nnz": 4 * 3, "boundary_cols": 0}
    full = lee.FilteredComplex(d).stats()
    assert full["window"] == [0, 3] and full["resolutions"] == 8
    assert full["dim"] == 30
    cx = complex_for([1, -2, 1, -2], 3)
    st_ = cx.stats()
    assert st_["nnz"] == sum(len(c) for c in cx.columns)
    assert st_["boundary_cols"] == len(cx.by_h[-1])
    assert st_["dim"] == len(cx.basis_h)

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
        assert not cx.apply_differential(chain)
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
        blocks = [{cx.basis_q[i] % 4 for i in h} for h in (h0, h1)]
        assert [len(b) for b in blocks] == [1, 1] and blocks[0] != blocks[1]
        r = len(cx.diagram.seifert_circles)
        assert r == strands
        assert cx.canonical_cycle(-1) == {
            i: (-1) ** r * (h0.get(i, 0) - h1.get(i, 0)) for i in g}


def test_homology_dimension_ranks_each_boundary_map_once(monkeypatch):
    cx = complex_for([1, -2, 1, -2], 3)       # degrees -2..2
    ranked = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda cols: ranked.append(len(cols)) or rank(cols))
    assert cx.homology_dimension() == 2
    # one rank per degree: the maps out of -2..1 and the zero map out of 2
    assert sorted(ranked) == sorted(len(cx.by_h[h]) for h in cx.by_h)


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
    assert not cx.apply_differential(h)
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


def reference_qgr(cx, chain):
    """The level scan: the class reaches level j iff the part of the chain
    above j lies in the span of the parts of the boundaries above j."""
    boundaries = [dict(cx.columns[i]) for i in cx.by_h.get(-1, ())]
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
    chains = [cx.canonical_cycle(label) for label in (1, -1)]
    chains += [cx.h_cycle(p) for p in (0, 1)]
    for chain in chains:
        assert (level_or_zero(cx.qgr, chain)
                == level_or_zero(lambda c: reference_qgr(cx, c), chain))


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
    assert max(cx.basis_q[i] for i in g) == 7
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
    # resolutions in ascending t, the order of the basis
    assert narrow.basis_t == sorted(narrow.basis_t)
    assert narrow.built == (max(-1, full.degrees[0]), 0)
    assert narrow.dim == sum(len(full.by_h.get(h, ())) for h in (-1, 0))

    def generator(cx, i):
        return cx.basis_t[i], cx.basis_subset[i]
    # its differential is the map from degree -1 into degree 0
    for i in range(narrow.dim):
        j = full.start[narrow.basis_t[i]] + narrow.basis_subset[i]
        expected = full.columns[j] if narrow.basis_h[i] == -1 else []
        assert ([(generator(narrow, row), c) for row, c in narrow.columns[i]]
                == [(generator(full, row), c) for row, c in expected])
    assert narrow.stats()["nnz"] == sum(map(len, narrow.columns))


def test_narrow_cycle_check_reaches_out_of_the_window():
    # in the s2 complex the images of degree-0 chains lie in degree 1,
    # which is not built; qgr must still tell cycles from non-cycles
    d = dg.parse_braid([1, -2, 1, -2], 3)
    full = lee.FilteredComplex(d, whole=True)
    narrow = lee.FilteredComplex(d)
    assert narrow.built == (-1, 0) and 1 not in narrow.by_h
    g = narrow.canonical_cycle(1)
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
    assert narrow.qgr(g) == full.qgr(full.canonical_cycle(1))


def test_cycle_checks_memoize_neighbouring_circles(monkeypatch):
    d = dg.parse_braid([1, -2, 1, -2, 1], 3)
    calls = []
    labels = d.circle_labels
    monkeypatch.setattr(d, "circle_labels",
                        lambda t: calls.append(t) or labels(t))
    cx = lee.FilteredComplex(d)
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
    # no built or neighbouring resolution is labelled twice; each cut
    # tried walks the degree -2 resolutions for clearing, and keeps none
    # of their labels
    walked = calls[built + neighbours:]
    assert walked and not any(t in cx.labels for t in walked)
    assert sorted(walked) == sorted(
        t for t in range(1 << d.n_crossings)
        if t.bit_count() == cx.n_minus - 2) * cx.stats()["cuts_tried"]


def test_cycles_need_degree_zero_only():
    # the figure eight's s2 complex holds degrees -1..0 of -2..2, the
    # trefoil's degree 0 alone: both give the whole cube's cycles
    def generators(cx, chain):
        return {(cx.basis_t[i], cx.basis_subset[i]): v
                for i, v in chain.items()}
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


@settings(max_examples=40, deadline=None)
@given(mixed_braids(7))
def test_doubled_edge_maps_match_the_per_subset_reference(braid):
    cx = complex_for(*braid)
    assert cx.columns == reference_columns(cx)
    assert cx.basis_q == [
        2 * bin(s).count("1") - (max(cx.labels[t]) + 1) - cx.writhe - h
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
    i = next(i for i in full.by_h[0]
             if len(full.apply_differential({i: 1})) == 4)
    j = cx.start[full.basis_t[i]] + full.basis_subset[i]
    for question in (lambda: cx.apply_differential({j: 1}),
                     cx.check_d_squared,
                     lambda: cx.boundary_columns(-1),
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
        assert st_["dim"] == len(cx.basis_h)


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
    for level in st_["cut"]:
        projected = {i: {row: c for row, c in cx.columns[i]
                         if cx.basis_q[row] >= level}
                     for i in cx.by_h[-1] if cx.basis_q[i] >= level
                     and (cx.basis_q[i] - level) % 4 == 0}
        gone = [i for i, c in enumerate(cx._cleared(level)) if c]
        nnz += sum(len(v) for v in projected.values())
        skipped += sum(len(projected[i]) for i in gone)
        rank += linalg.rank(projected.values())
        cleared += len(gone)
    assert st_["cut_nnz"] + skipped == nnz > 0
    assert st_["pivots"] == rank > 0
    assert st_["cleared"] == cleared > 0
    assert st_["nnz"] == sum(len(c) for c in cx.columns)

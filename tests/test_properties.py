"""Property-based checks on randomly generated braid closures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import calculus as ca
from linksn import diagram as dg
from linksn import lee, linalg
from linksn import verify
from test_calculus import braid_closures
from test_lee import (boundary_columns, reference_d_squared,
                      reference_generators, reference_q, spy_cuts)

braid_words = st.lists(
    st.integers(-2, 2).filter(bool), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(braid_words)
def test_homology_dimension_random_braids(word):
    d = dg.parse_braid(word, 3)
    cx = lee.FilteredComplex(d, whole=True)
    assert cx.homology_dimension() == 2 ** d.n_components


@settings(max_examples=40, deadline=None)
@given(braid_words, st.data())
def test_cleared_ranks_of_corrupted_complexes(word, data):
    """1-3 corruptions of what the ranks read, each a bit flipped in an
    image table entry or an edge's sign flipped, doubled or zeroed, which
    mostly makes d^2 nonzero: each vector the sweep skips is checked, so
    every rank equals that of the uncleared reference built from the
    same corrupted complex."""
    cx = lee.FilteredComplex(dg.parse_braid(word, 3), whole=True)
    tables = image_tables(cx)
    edges = [(t, t | 1 << i) for t in cx.start for i in range(cx.n)
             if not (t >> i) & 1]
    factors = {}    # (t, t2) -> what the edge's sign is multiplied by
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            shape = data.draw(st.sampled_from(sorted(tables)))
            r, _, _, split = shape
            image = data.draw(st.sampled_from(tables[shape]))
            s = data.draw(st.integers(0, len(image) - 1))
            # a bit below the target's r + 1 or r - 1 circles: in range
            image[s] ^= 1 << data.draw(st.integers(0, r if split else r - 2))
        else:
            edge = data.draw(st.sampled_from(edges))
            factors[edge] = data.draw(st.sampled_from((-1, 2, 0)))
    edge_maps = cx._edge_maps
    cx._edge_maps = lambda t: ((t2, sign * factors.get((t, t2), 1), images)
                               for t2, sign, images in edge_maps(t))
    lo, hi = cx.degrees
    got = {h: cx.homology_rank(h) for h in range(lo - 1, hi + 2)}
    assert "columns" not in cx.__dict__
    ranks = {h: linalg.rank(boundary_columns(cx, h))
             for h in range(lo, hi + 1)}
    assert cx.homology_dimension() == cx.dim - 2 * sum(ranks.values())
    assert got == {h: len(cx.by_h.get(h, ())) - ranks.get(h, 0)
                   - ranks.get(h - 1, 0) for h in got}


def image_tables(cx):
    """The complex's image tables by shape, every one built, as ``stats``
    builds them, and ``columns`` not."""
    cx.stats()
    return cx._tables


@settings(max_examples=40, deadline=None)
@given(braid_words, st.data())
def test_d_squared_random_braids(word, data):
    """``check_d_squared`` equals d applied twice to every generator, as
    built and after one image table entry is flipped."""
    d = dg.parse_braid(word, 3)
    cx = lee.FilteredComplex(d, whole=True)
    assert cx.check_d_squared() and reference_d_squared(cx)
    broken = lee.FilteredComplex(d, whole=True)
    tables = image_tables(broken)
    shape = data.draw(st.sampled_from(sorted(tables)))
    r, _, _, split = shape
    image = data.draw(st.sampled_from(tables[shape]))
    s = data.draw(st.integers(0, len(image) - 1))
    # a bit below the target's r + 1 or r - 1 circles: in range
    image[s] ^= 1 << data.draw(st.integers(0, r if split else r - 2))
    assert broken.check_d_squared() == reference_d_squared(broken)


@settings(max_examples=30, deadline=None)
@given(braid_words)
def test_qgr_label_independent_random_braids(word):
    cx = lee.FilteredComplex(dg.parse_braid(word, 3))
    assert cx.qgr(cx.canonical_cycle(1)) == cx.qgr(cx.canonical_cycle(-1))


@settings(max_examples=30, deadline=None)
@given(braid_words)
def test_interval_from_positivization_random_braids(word):
    d = dg.parse_braid(word, 3)
    v = ca.sn_diagram_interval(d, 2)
    assert v.lo <= lee.s2(d) <= v.hi


@settings(max_examples=30, deadline=None)
@given(braid_words)
def test_mirror_window_random_braids(word):
    d = dg.parse_braid(word, 3)
    total = lee.s2(d) + lee.s2(dg.mirror(d))
    assert 0 <= total <= 2 * d.n_components - 2


def cut_columns(cx, whole, level, degree):
    """The columns of the cut at ``level``, by cx's basis index, from the
    whole complex's columns: the sources of ``degree`` in the level's
    block at q >= level, their terms at q >= level, keyed by cx's index
    (rows keyed by minus it, as ``_cut_at`` keys them)."""
    generators, rows = reference_generators(cx), reference_generators(whole)
    index = {g: i for i, g in enumerate(generators)}
    q_of = reference_q(cx)
    whole_q = reference_q(whole)
    cols = {}
    for j in whole.by_h[degree]:
        if whole_q[j] < level or (whole_q[j] - level) % 4:
            continue
        cols[index[rows[j]] if degree == -1 else j] = {
            -k: c for row, c in whole.columns[j]
            if q_of[k := index[rows[row]]] >= level}
    return cols, q_of


def kernel_maxima(cx, whole, level, key):
    """The cut's sources that some degree -2 kernel vector leads with, by
    ``key``(q, index): the clearing of ``_cleared`` in that order."""
    kernel, q_of = cut_columns(cx, whole, level, -2)
    return {max((-k for k in vec), key=lambda i: key(q_of[i], i))
            for vec in kernel.values() if vec}


def check_clearing(word):
    """Every cut built, eliminated again from the whole complex's columns
    with no source skipped: each cleared source reduces to zero against
    the sources kept, and the cut has the rank and the pivot keys of the
    elimination that skips none.  Unless the gate clears none, the
    cleared sources are exactly the kernel vectors' largest terms by (q,
    index): one pass over the edges clears every one."""
    d = dg.parse_braid(word, 4)
    cx = lee.FilteredComplex(d)
    cuts = spy_cuts(cx)
    cx.s2()
    cx.qgr(cx.canonical_cycle(-1))
    whole = lee.FilteredComplex(d, whole=True)
    deepest = {cut.level: cut for cut in cx._cuts.values()}
    for level, built in cuts:
        cols, _ = cut_columns(cx, whole, level, -1)
        cleared = {i for i, c in enumerate(cx._cleared(level)) if c}
        assert cleared <= set(cols)
        if cleared:
            assert cleared == kernel_maxima(cx, whole, level,
                                            lambda q, i: (q, i))
        every, kept = linalg.Echelon(), linalg.Echelon()
        for i in sorted(cols):
            every.add(cols[i])
            if i not in cleared:
                kept.add(cols[i])
        assert all(not kept.reduce(cols[i]) for i in cleared)
        assert built.rank == every.rank == kept.rank
        assert set(built.pivots) == set(every.pivots)
        if level in deepest:
            assert deepest[level].pivots == every.rank
            assert deepest[level].cleared == len(cleared)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=8)
       .filter(lambda word: sum(g < 0 for g in word) >= 2))
def test_cleared_sources_reduce_to_zero_random_braids(word):
    check_clearing(word)


def test_cleared_sources_lead_kernel_vectors_by_q_then_index():
    # at level 3 clearing by (q, index) skips 16 sources, and by index
    # alone it would skip 15; some of the 16 an ascending-index
    # elimination adds, so the stored pivot rows change, but not their
    # keys
    word = [1, 1, -2, -2, -2]
    check_clearing(word)
    d = dg.parse_braid(word, 4)
    cx, whole = lee.FilteredComplex(d), lee.FilteredComplex(d, whole=True)
    cx.s2()
    by_index = {level: len(kernel_maxima(cx, whole, level, lambda q, i: i))
                for level in (cut.level for cut in cx._cuts.values())}
    assert by_index == {5: 8, 3: 15} and cx.stats()["cleared"] == 8 + 16


def test_a_kernel_vector_with_no_own_q_term_is_cleared_in_one_pass():
    # the figure-eight's cut at level 1 holds one degree -2 kernel vector
    # whose terms all lie 4 below its generator's q: every edge merges
    # two circles that carry x.  Its largest term is the largest term of
    # the generator without the two circles of the highest crossing's
    # edge, at that one's own q, so the one pass clears it
    d = dg.parse_braid([1, -2, 1, -2], 3)
    cx, whole = lee.FilteredComplex(d), lee.FilteredComplex(d, whole=True)
    kernel, q_of = cut_columns(cx, whole, 1, -2)
    whole_q = reference_q(whole)
    below = [vec for j, vec in kernel.items()
             if vec and all(q_of[-k] == whole_q[j] - 4 for k in vec)]
    assert len(below) == 1
    assert cx._cleared(1)[max(-k for k in below[0])]


def test_clearing_by_two_orders_at_once_fails_the_check(monkeypatch):
    # the largest terms by (q, index) and by descending index together
    # are no one order's: their vectors need not be triangular, and
    # skipping them all loses a source the span needs
    def mixed(self, level):
        whole = lee.FilteredComplex(self.diagram, whole=True)
        mask = bytearray(self.dim)
        for key in (lambda q, i: (q, i)), (lambda q, i: -i):
            for i in kernel_maxima(self, whole, level, key):
                mask[i] = 1
        return mask
    check_clearing([-3, -3, 3])
    monkeypatch.setattr(lee.FilteredComplex, "_cleared", mixed)
    with pytest.raises(AssertionError):
        check_clearing([-3, -3, 3])


@settings(max_examples=20, deadline=None)
@given(braid_words, st.integers(0, 10))
def test_stabilization_preserves_s2(word, seed):
    """Markov stabilization (extra strand, one crossing) fixes the link."""
    d = dg.parse_braid(word, 3)
    stab = dg.parse_braid(word + [3], 4)
    assert lee.s2(stab) == lee.s2(d)


def test_verify_suites_all_pass():
    report = verify.run(seed=1)
    failures = {k: v["failures"]
                for k, v in report["results"].items() if v["failures"]}
    assert report["ok"], failures


def test_fault_injection_detected(monkeypatch):
    """A corrupted image table, or edges that lost their signs, must fail
    the d-squared check."""
    d = dg.parse_braid([1, 1, 1], 2)
    cx = lee.FilteredComplex(d, whole=True)
    assert cx.check_d_squared()
    tables = image_tables(cx)
    tables[min(tables)][0][0] ^= 1
    assert not cx.check_d_squared()
    assert "columns" not in cx.__dict__
    assert not reference_d_squared(cx)
    edge_maps = lee.FilteredComplex._edge_maps
    monkeypatch.setattr(lee.FilteredComplex, "_edge_maps", lambda self, t: (
        (t2, 1, images) for t2, _, images in edge_maps(self, t)))
    unsigned = lee.FilteredComplex(d, whole=True)
    assert not unsigned.check_d_squared()
    assert not reference_d_squared(unsigned)


def test_known_values_fails_once_per_known_value(monkeypatch):
    monkeypatch.setattr(lee, "s2", lambda d: 99)
    known = [(name, v) for name, _, v in verify.corpus() if v is not None]
    checks, failures = verify.check_known_values()
    assert checks == len(known)
    assert failures == [f"{name}: s2 = 99, expected {v}" for name, v in known]


def test_crossing_change_without_a_tight_instance_fails(monkeypatch):
    # no crossing change moves a constant s2, so none is tight
    monkeypatch.setattr(lee, "s2", lambda d: 0)
    crossings = sum(d.n_crossings for _, d, _ in verify.corpus())
    checks, failures = verify.check_crossing_change()
    assert failures == ["no tight crossing-change instance observed"]
    assert checks == crossings + 1


def test_filtration_drop_names_the_bad_entry(monkeypatch):
    """One image table entry corrupted in the trefoil's complex: the
    failure names each entry that drops q by neither 0 nor 4, found
    entry-wise from ``columns`` and ``reference_q``, in column order."""
    complexes = verify._complexes
    bad = []

    def corrupted(whole=False):
        for name, cx in complexes(whole):
            if name == "trefoil":
                # the split of one circle, on six edges out of degree 1
                tables = image_tables(cx)
                tables[min(tables)][0][0] ^= 1
                q_of = reference_q(cx)
                bad.extend(f"q drop {q_of[col] - q_of[row]} at entry "
                           f"({row}, {col})"
                           for col in range(cx.dim)
                           for row, _ in cx.columns[col]
                           if q_of[col] - q_of[row] not in (0, 4))
                del cx.columns      # the check must not read it
            yield name, cx
    monkeypatch.setattr(verify, "_complexes", corrupted)
    checks, failures = verify.check_filtration_drop()
    assert checks == len(verify.corpus())
    assert failures == ["trefoil: " + ", ".join(bad)] and len(bad) == 6


def test_whole_cube_checks_build_no_columns(monkeypatch):
    """The d-squared, filtration-drop and homology-dimension suites read
    the edge maps: none builds ``columns``."""
    complexes, made = verify._complexes, []

    def recorded(whole=False):
        for name, cx in complexes(whole):
            made.append(cx)
            yield name, cx
    monkeypatch.setattr(verify, "_complexes", recorded)
    suites = ("d-squared", "filtration-drop", "homology-dimension")
    for suite in suites:
        checks, failures = verify.PROPERTIES[suite]()
        assert checks and not failures
    assert len(made) == len(suites) * len(verify.corpus())
    assert all("columns" not in cx.__dict__ for cx in made)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), min_size=0, max_size=10),
       st.integers(0, 2))
def test_component_walk_gives_each_sublink(word, loops):
    """Each component's self-crossings, their sign and its Seifert circles
    from one walk equal those of ``sublink(d, [i])``, and a component
    with positive self-crossings has s_2 = -(c - r + 1) by the engine."""
    d = dg.disjoint_union(dg.parse_braid(word, 4), dg.unlink(loops)) \
        if loops else dg.parse_braid(word, 4)
    walked = d.component_seifert
    assert len(walked) == d.n_components
    for i, (c, positive, r) in enumerate(walked):
        own = dg.sublink(d, [i])
        assert (c, positive, r) == (own.n_crossings, own.is_positive,
                                    len(own.seifert_circles))
        if positive:
            assert lee.s2(own) == -(c - r + 1)


positive_words = st.lists(st.integers(1, 3), min_size=0, max_size=8)


@settings(max_examples=60, deadline=None)
@given(positive_words, positive_words)
def test_positive_genus_adds_over_a_disjoint_union(a, b):
    da, db = dg.parse_braid(a, 4), dg.parse_braid(b, 4)
    union = dg.disjoint_union(da, db)
    assert ca.genus_positive(union) == \
        ca.genus_positive(da) + ca.genus_positive(db)


@st.composite
def unions_and_sums(draw):
    """Disjoint unions and connected sums of mixed-sign braid closures
    and free loops."""
    pieces = braid_closures(0, 6).map(lambda b: dg.parse_braid(*b)) | \
        st.integers(1, 2).map(dg.unlink)
    d = draw(pieces)
    for _ in range(draw(st.integers(0, 3))):
        e = draw(pieces)
        if draw(st.booleans()):
            d = dg.disjoint_union(d, e)
        else:
            d = dg.connect_sum(d, draw(st.integers(0, d.n_components - 1)),
                               e, draw(st.integers(0, e.n_components - 1)))
    return d


@settings(max_examples=100, deadline=None)
@given(unions_and_sums())
def test_seifert_genus_numerator_is_even(d):
    """c - r + 2p - l is twice the genus of the pieces' Seifert surfaces,
    so ``genus_positive`` never halves an odd number."""
    num = d.n_crossings - len(d.seifert_circles) + 2 * d.n_pieces \
        - d.n_components
    assert num >= 0 and num % 2 == 0, (d.crossings, d.loops)

"""Property-based checks on randomly generated braid closures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import calculus as ca
from linksn import diagram as dg
from linksn import lee, linalg
from linksn import verify

braid_words = st.lists(
    st.integers(-2, 2).filter(bool), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(braid_words)
def test_homology_dimension_random_braids(word):
    d = dg.parse_braid(word, 3)
    cx = lee.FilteredComplex(d, whole=True)
    assert cx.homology_dimension() == 2 ** d.n_components


@settings(max_examples=40, deadline=None)
@given(braid_words)
def test_d_squared_random_braids(word):
    cx = lee.FilteredComplex(dg.parse_braid(word, 3), whole=True)
    assert cx.check_d_squared()


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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=8)
       .filter(lambda word: sum(g < 0 for g in word) >= 2))
def test_cleared_sources_reduce_to_zero_random_braids(word):
    """Every cached cut, eliminated again from the whole complex's
    columns with no source skipped: each cleared source reduces to zero
    there, and the echelons are the same."""
    d = dg.parse_braid(word, 4)
    cx = lee.FilteredComplex(d)
    cx.s2()
    cx.qgr(cx.canonical_cycle(-1))
    whole = lee.FilteredComplex(d, whole=True)
    index = {(t, s): i for i, (t, s) in
             enumerate(zip(cx.basis_t, cx.basis_subset))}
    for cut in cx._cuts.values():
        level, ech, zero = cut.level, linalg.Echelon(), set()
        for i in cx.by_h[-1]:
            if cx.basis_q[i] < level or (cx.basis_q[i] - level) % 4:
                continue
            col = {}
            for row, c in whole.columns[whole.start[cx.basis_t[i]]
                                        + cx.basis_subset[i]]:
                k = index[whole.basis_t[row], whole.basis_subset[row]]
                if cx.basis_q[k] >= level:
                    col[cx.dim * (1 - cx.basis_q[k]) - 1 - k] = c
            if not ech.add(col):
                zero.add(i)
        cleared = {i for i, c in enumerate(cx._cleared(level)) if c}
        assert cleared <= zero and cut.cleared == len(cleared)
        assert cut.echelon.pivots == ech.pivots


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


def test_fault_injection_detected():
    """A corrupted differential must fail the d-squared check."""
    cx = lee.FilteredComplex(dg.parse_braid([1, 1, 1], 2), whole=True)
    col = next(i for i in range(cx.dim) if cx.columns[i])
    row, coeff = cx.columns[col][0]
    cx.columns[col][0] = (row, coeff + 1)
    broken = cx.check_d_squared()
    ok_after_injection = broken
    # restore to keep the cached object unusable by accident
    cx.columns[col][0] = (row, coeff)
    assert not ok_after_injection


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
    complexes = verify._complexes
    bad = []

    def corrupted(whole=False):
        for name, cx in complexes(whole):
            if name == "trefoil":
                col = next(i for i in range(cx.dim) if cx.columns[i])
                row = next(r for r in range(cx.dim)
                           if cx.basis_q[col] - cx.basis_q[r] not in (0, 4))
                cx.columns[col].append((row, 1))
                drop = cx.basis_q[col] - cx.basis_q[row]
                bad.append(f"trefoil: q drop {drop} at entry ({row}, {col})")
            yield name, cx
    monkeypatch.setattr(verify, "_complexes", corrupted)
    checks, failures = verify.check_filtration_drop()
    assert checks == len(verify.corpus())
    assert failures == bad and len(bad) == 1

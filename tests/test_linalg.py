from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import linalg


def test_rank_simple():
    assert linalg.rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([{}, {}]) == 0
    assert linalg.rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1


def test_in_span():
    basis = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    assert linalg.in_span(basis, {0: 1, 2: -1})
    assert linalg.in_span(basis, {})
    assert not linalg.in_span(basis, {0: 1})


def test_in_span_rational_combination():
    # target = (1/2) v1 + (1/3) v2 over the rationals
    v1, v2 = {0: 2, 1: 4}, {1: 3, 2: 6}
    target = {0: 1, 1: 3, 2: 2}
    assert linalg.in_span([v1, v2], target)


def _dense_rank(rows, width):
    """Oracle: textbook Gaussian elimination over Fraction."""
    mat = [[Fraction(r.get(j, 0)) for j in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


vectors = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool),
                    max_size=6),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(vectors)
def test_rank_matches_dense_oracle(rows):
    assert linalg.rank(rows) == _dense_rank(rows, 6)


@settings(max_examples=200, deadline=None)
@given(vectors, st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_span_contains_combinations(rows, coeffs):
    combo = {}
    for r, c in zip(rows, coeffs):
        for k, v in r.items():
            combo[k] = combo.get(k, 0) + c * v
    combo = {k: v for k, v in combo.items() if v}
    assert linalg.in_span(rows, combo)


@settings(max_examples=200, deadline=None)
@given(vectors)
def test_echelon_contains_its_inputs(rows):
    ech = linalg.Echelon()
    grew = sum(ech.add(r) for r in rows)
    assert grew == linalg.rank(rows)
    for r in rows:
        assert ech.contains(r)


def _dense_in_span(rows, target, width):
    return _dense_rank(rows + [target], width) == _dense_rank(rows, width)


@settings(max_examples=200, deadline=None)
@given(vectors, st.lists(st.integers(-4, 4), min_size=8, max_size=8),
       st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool),
                       max_size=2))
def test_residue_leads_where_projection_leaves_span(rows, coeffs, noise):
    target = dict(noise)
    for r, c in zip(rows, coeffs):
        for k, v in r.items():
            target[k] = target.get(k, 0) + c * v
    target = {k: v for k, v in target.items() if v}
    ech = linalg.Echelon()
    for r in rows:
        ech.add(r)
    residue = ech.reduce(target)

    def head(vec, j):
        return {k: v for k, v in vec.items() if k <= j}

    leaves = [j for j in range(6)
              if not _dense_in_span([head(r, j) for r in rows],
                                    head(target, j), 6)]
    assert (not residue) == _dense_in_span(rows, target, 6)
    assert min(residue, default=None) == min(leaves, default=None)

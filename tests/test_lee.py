import json

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
    with pytest.raises(TooLarge):
        lee.FilteredComplex(dg.torus_link(2, 17))
    with pytest.raises(TooLarge):
        lee.s2(dg.parse_braid([1] * 5, 2), max_crossings=4)


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


def test_dump_json():
    cx = complex_for([1, 1], 2)
    data = json.loads(cx.dump_json())
    assert data["dimension"] == cx.dim
    assert len(data["h"]) == cx.dim
    assert all(coeff.endswith("/1") for _, _, coeff in data["differential"])


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


mixed_braids = st.integers(2, 4).flatmap(lambda strands: st.tuples(
    st.lists(st.integers(1 - strands, strands - 1).filter(bool),
             min_size=1, max_size=7),
    st.just(strands)))


@settings(max_examples=60, deadline=None)
@given(mixed_braids)
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

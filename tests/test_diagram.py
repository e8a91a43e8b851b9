import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import diagram as dg
from linksn import movie as mv
from linksn.errors import (
    GeneratorOutOfRange,
    InconsistentDiagram,
    IndexOutOfRange,
    MalformedPD,
)

RIGHT_TREFOIL_PD = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"
# the trefoil after an R2 on edges (2, 5): every edge is used once in and
# once out, but there are 5 faces for 5 crossings, where a plane drawing
# has 7
NON_PLANAR_PD = "X[4,10,5,9] X[6,2,7,1] X[7,3,8,2] X[8,3,9,4] X[10,6,1,5]"


def test_parse_pd_trefoil():
    d = dg.parse_pd(RIGHT_TREFOIL_PD)
    assert d.n_crossings == 3
    assert d.n_components == 1
    assert d.writhe == 3
    assert d.is_positive


def test_pd_matches_braid_closure():
    d = dg.parse_pd(RIGHT_TREFOIL_PD)
    assert dg.serialize_pd(d) == dg.serialize_pd(dg.parse_braid([1, 1, 1], 2))


def test_sign_inference_negative():
    d = dg.parse_pd("X[1,3,2,4] Xm[4,2,3,1]")
    assert [x.sign for x in d.crossings] == [-1, -1]
    assert dg.serialize_pd(d) == dg.serialize_pd(dg.parse_braid([-1, -1], 2))


def test_unknot_token():
    d = dg.parse_pd("U")
    assert d.n_crossings == 0
    assert d.n_components == 1
    assert dg.parse_pd("U U U").n_components == 3


def test_pd_with_commas_and_whitespace():
    d = dg.parse_pd("X[4, 2, 5, 1]  X[6,4,1,3]\nX[2,6,3,5]")
    assert d.n_crossings == 3


def test_malformed_pd():
    with pytest.raises(MalformedPD):
        dg.parse_pd("X[1,2,3]")
    with pytest.raises(MalformedPD):
        dg.parse_pd("X[1,2,3,a]")
    with pytest.raises(MalformedPD):
        dg.parse_pd("Y[1,2,3,4]")
    with pytest.raises(MalformedPD):
        dg.parse_pd("X[1,2,3,2]")  # over-strand repeats an edge


def test_inconsistent_pd_rejected():
    # each edge must appear exactly once as an input and once as an output
    with pytest.raises(InconsistentDiagram):
        dg.parse_pd("X[1,4,2,3] X[3,6,4,5] X[5,2,6,1]")


def test_serialize_roundtrip():
    for d in (dg.parse_braid([1, 1], 2), dg.parse_braid([-1, -1], 2),
              dg.parse_braid([1, -2, 1, -2], 3), dg.torus_link(3, 4),
              dg.unlink(3),
              dg.disjoint_union(dg.parse_braid([1, 1], 2), dg.unlink(1)),
              dg.disjoint_union(dg.unknot(), dg.parse_braid([1], 2))):
        text = dg.serialize_pd(d)
        assert dg.serialize_pd(dg.parse_pd(text)) == dg.serialize_pd(d)
        assert dg.serialize_pd(dg.parse_pd(text)) == text


def test_json_roundtrip():
    d = dg.torus_link(2, 4)
    assert dg.serialize_pd(dg.from_json(dg.to_json(d))) == dg.serialize_pd(d)


def test_braid_closure_components():
    assert dg.parse_braid([1, 1, 1], 2).n_components == 1
    assert dg.parse_braid([1, 1], 2).n_components == 2
    # an unused strand closes into a free loop
    d = dg.parse_braid([1], 3)
    assert d.n_components == 2
    assert len(d.loops) == 1


def test_braid_generator_range():
    with pytest.raises(GeneratorOutOfRange):
        dg.parse_braid([3], 3)
    with pytest.raises(GeneratorOutOfRange):
        dg.parse_braid([0], 2)


def test_torus_links():
    assert dg.torus_link(2, 3).n_components == 1
    assert dg.torus_link(2, 4).n_components == 2
    assert dg.torus_link(3, 3).n_components == 3
    assert dg.torus_link(3, 4).n_crossings == 8
    with pytest.raises(IndexOutOfRange):
        dg.torus_link(0, 3)


def test_writhe_and_mirror():
    t = dg.parse_braid([1, 1, 1], 2)
    m = dg.mirror(t)
    assert m.writhe == -3
    assert (t.n_minus, m.n_minus) == (0, 3)
    assert dg.serialize_pd(dg.mirror(m)) == dg.serialize_pd(t)
    # mirror preserves components and the Seifert circle count
    assert m.n_components == 1
    assert len(m.seifert_circles) == len(t.seifert_circles)


def test_crossing_change():
    t = dg.parse_braid([1, 1, 1], 2)
    c = dg.crossing_change(t, 0)
    assert c.writhe == 1
    assert dg.serialize_pd(dg.crossing_change(c, 0)) == dg.serialize_pd(t)
    with pytest.raises(IndexOutOfRange):
        dg.crossing_change(t, 3)


def linking_number(d, i, j):
    """Linking number of components i and j: half their signed crossings."""
    comp = d.edge_component
    total = sum(x.sign for x in d.crossings
                if {comp[x.a], comp[x.over_in]} == {i, j})
    assert total % 2 == 0, "odd signed crossing count between components"
    return total // 2


def is_pairwise_unlinked(d):
    l = d.n_components
    return all(linking_number(d, i, j) == 0
               for i in range(l) for j in range(i + 1, l))


def test_linking_numbers():
    hopf = dg.parse_braid([1, 1], 2)
    assert linking_number(hopf, 0, 1) == 1
    t24 = dg.torus_link(2, 4)
    assert linking_number(t24, 0, 1) == 2
    assert not is_pairwise_unlinked(t24)
    assert is_pairwise_unlinked(dg.unlink(2))


def test_disjoint_union():
    d = dg.disjoint_union(dg.parse_braid([1, 1, 1], 2),
                          dg.parse_braid([1, 1], 2))
    assert d.n_components == 3
    assert d.n_crossings == 5
    assert d.writhe == 5


def test_connect_sum():
    t = dg.parse_braid([1, 1, 1], 2)
    d = dg.connect_sum(t, 0, t, 0)
    assert d.n_components == 1
    assert d.n_crossings == 6
    assert d.writhe == 6
    with pytest.raises(IndexOutOfRange):
        dg.connect_sum(t, 1, t, 0)


def test_splice_fission_and_fusion():
    t = dg.parse_braid([1, 1, 1], 2)
    split = dg.splice_edges(t, 1, 3)
    assert split.n_components == 2  # same component: fission
    hopf = dg.parse_braid([1, 1], 2)
    joined = dg.splice_edges(hopf, 1, 4)
    assert joined.n_components == 1  # different components: fusion
    pinched = dg.splice_edges(t, 2, 2)
    assert pinched.n_components == 2
    assert len(pinched.loops) == 1


def test_sublink():
    t24 = dg.torus_link(2, 4)
    assert dg.sublink(t24, [0]).n_crossings == 0
    assert dg.sublink(t24, [0]).n_components == 1
    t33 = dg.torus_link(3, 3)
    pair = dg.sublink(t33, [0, 1])
    assert pair.n_crossings == 2
    assert pair.writhe == 2
    assert linking_number(pair, 0, 1) == 1  # a positive Hopf link
    full = dg.sublink(t33, [0, 1, 2])
    assert dg.serialize_pd(full) == dg.serialize_pd(t33)
    with pytest.raises(IndexOutOfRange):
        dg.sublink(t24, [5])


def test_diagram_counts():
    d = dg.parse_braid([1, 1, 1], 2)
    assert (d.n_crossings, len(d.seifert_circles), d.writhe,
            d.n_components) == (3, 2, 3, 1)
    empty = dg.parse_pd("")
    assert (empty.n_crossings, len(empty.seifert_circles), empty.writhe,
            empty.n_components) == (0, 0, 0, 0)


def test_canonical_is_stable():
    d = dg.torus_link(3, 4).canonical()
    assert d.canonical().crossings == d.crossings


def test_non_planar_pd_rejected():
    bad = mv.apply_move(dg.parse_braid([1, 1, 1], 2),
                        mv.Move("R2", edges=(2, 5)))
    assert dg.serialize_pd(bad) == NON_PLANAR_PD
    with pytest.raises(InconsistentDiagram, match="not planar"):
        bad.check_planar()
    with pytest.raises(InconsistentDiagram, match="not planar"):
        dg.parse_pd(NON_PLANAR_PD)
    with pytest.raises(InconsistentDiagram, match="not planar"):
        dg.from_json(dg.to_json(bad))
    # two pieces: a planar one beside the non-planar one
    with pytest.raises(InconsistentDiagram):
        dg.disjoint_union(dg.parse_braid([1, 1], 2), bad).check_planar()


def braids():
    return st.integers(1, 4).flatmap(lambda strands: st.tuples(
        st.lists(st.integers(1 - strands, strands - 1).filter(bool),
                 max_size=10),
        st.just(strands)))


@settings(max_examples=150, deadline=None)
@given(braids(), braids(), st.data())
def test_constructions_stay_planar(b1, b2, data):
    d1, d2 = dg.parse_braid(*b1), dg.parse_braid(*b2)
    made = [d1, dg.mirror(d1), dg.disjoint_union(d1, d2),
            dg.connect_sum(
                d1, data.draw(st.integers(0, d1.n_components - 1)),
                d2, data.draw(st.integers(0, d2.n_components - 1))),
            dg.sublink(d1, data.draw(st.sets(
                st.integers(0, d1.n_components - 1), min_size=1)))]
    if d1.n_crossings:
        made.append(dg.crossing_change(
            d1, data.draw(st.integers(0, d1.n_crossings - 1))))
    for d in made:
        d.check_planar()
        dg.parse_pd(dg.serialize_pd(d))


def reference_circles(d, t_mask):
    """The circles of a resolution by union-find over edge ids, one
    frozenset per circle, sorted by smallest edge."""
    parent = {e: e for e in d.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for i, x in enumerate(d.crossings):
        # smoothing 0 pairs edges (a, b) and (c, d), smoothing 1 (a, d)
        # and (b, c); 0 is the oriented one at a positive crossing
        pairs = (((x.a, x.b), (x.c, x.d)), ((x.a, x.d), (x.b, x.c)))
        for u, v in pairs[(t_mask >> i) & 1]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups = {}
    for e in d.edges:
        groups.setdefault(find(e), set()).add(e)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def assert_circles_match_reference(d):
    for t in range(1 << d.n_crossings):
        want = reference_circles(d, t)
        assert d.circles(t) == want, (d, t)
        circle_of = {e: k for k, c in enumerate(want) for e in c}
        assert d.circle_labels(t) == tuple(circle_of[e] for e in d.edges)


def test_circles_match_the_union_find_reference():
    from linksn import verify
    diagrams = [d for _, d, _ in verify.corpus() if d.n_crossings <= 8]
    assert any(d.loops and d.crossings for d in diagrams)
    # kinks, whose smoothings pair an edge with itself, and a loop whose
    # edge id is smaller than every crossing edge
    kink = dg.parse_pd("X[2,2,1,1]")
    diagrams += [kink, dg.mirror(kink), dg.disjoint_union(dg.unknot(), kink),
                 dg.disjoint_union(dg.unknot(), dg.parse_braid([1, -2, 1], 3))]
    for d in diagrams:
        assert_circles_match_reference(d)


@settings(max_examples=80, deadline=None)
@given(braids(), st.integers(0, 2))
def test_circle_labels_match_the_reference_on_random_braids(braid, loops):
    d = dg.parse_braid(*braid)
    if loops:
        d = dg.disjoint_union(dg.unlink(loops), d)
    assert_circles_match_reference(d)

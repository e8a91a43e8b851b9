import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksn import diagram as dg
from linksn import lee
from linksn import movie as mv
from linksn.errors import (
    InapplicableMove,
    InconsistentDiagram,
    InputError,
    NotEndingInUnlink,
)

TREFOIL = dg.parse_braid([1, 1, 1], 2)
HOPF = dg.parse_braid([1, 1], 2)


def genus1_trefoil_movie():
    """Fission, fusion, then unkinking: chi = -2, ends in one circle."""
    return mv.Movie(TREFOIL, [
        mv.Move("H1", edges=(1, 3), comment="fission"),
        mv.Move("H1", edges=(2, 4), comment="fusion"),
        mv.Move("R1+", crossings=(1,)),
        mv.Move("R1+", crossings=(0,)),
        mv.Move("R1+", crossings=(0,)),
    ])


# -- single moves -------------------------------------------------------------


def test_h0_adds_circle():
    d = mv.apply_move(TREFOIL, mv.Move("H0"))
    assert d.n_components == TREFOIL.n_components + 1
    assert len(d.loops) == 1


def test_h2_needs_free_circle():
    d = mv.apply_move(TREFOIL, mv.Move("H0"))
    back = mv.apply_move(d, mv.Move("H2", edges=d.loops))
    assert back.same_diagram(TREFOIL)
    with pytest.raises(InapplicableMove):
        mv.apply_move(TREFOIL, mv.Move("H2", edges=(1,)))


def test_h1_fusion_and_fission():
    fused = mv.apply_move(HOPF, mv.Move("H1", edges=(1, 4)))
    assert fused.n_components == 1
    split = mv.apply_move(TREFOIL, mv.Move("H1", edges=(1, 3)))
    assert split.n_components == 2


def test_r1_insert_remove_roundtrip():
    for kind in ("R1+", "R1-"):
        d = mv.apply_move(TREFOIL, mv.Move(kind, edges=(1,)))
        assert d.n_crossings == 4
        assert lee.s2(d) == -2
        k = d.n_crossings - 1
        back = mv.apply_move(d, mv.Move(kind, crossings=(k,)))
        assert back.same_diagram(TREFOIL)


def test_r1_kink_on_circle():
    d = mv.apply_move(dg.unknot(), mv.Move("R1+", edges=(1,)))
    assert d.n_crossings == 1 and d.n_components == 1
    back = mv.apply_move(d, mv.Move("R1+", crossings=(0,)))
    assert back.same_diagram(dg.unknot())


def test_r1_wrong_sign():
    d = mv.apply_move(TREFOIL, mv.Move("R1+", edges=(1,)))
    with pytest.raises(InapplicableMove):
        mv.apply_move(d, mv.Move("R1-", crossings=(d.n_crossings - 1,)))


def test_r2_insert_remove_roundtrip():
    d = mv.apply_move(TREFOIL, mv.Move("R2", edges=(5, 2)))
    d.check_planar()
    assert d.n_crossings == 5
    assert d.writhe == TREFOIL.writhe
    assert lee.s2(d) == -2
    back = mv.apply_move(d, mv.Move("R2", crossings=(3, 4)))
    assert back.same_diagram(TREFOIL)
    # edges 2 and 5 bound a common face, but only the order (5, 2) puts
    # the bigon inside it; (2, 5) leaves 5 faces for 5 crossings, and
    # neither replay nor the engine take that frame
    bad = mv.Movie(TREFOIL, [mv.Move("R2", edges=(2, 5))])
    with pytest.raises(InapplicableMove, match="move 0 ") as exc:
        mv.validate_movie(bad)
    assert exc.value.index == 0
    with pytest.raises(InconsistentDiagram):
        lee.s2(mv.apply_move(TREFOIL, bad.moves[0]))


def test_face_count_on_planar_diagrams():
    # Euler's formula per piece: c - 2c + F = 2
    planar = [TREFOIL, dg.parse_braid([1, -2, 1, -2], 3), dg.torus_link(3, 4),
              dg.disjoint_union(TREFOIL, TREFOIL),
              mv.apply_move(TREFOIL, mv.Move("R2", edges=(1, 4)))]
    for d in planar:
        d.check_planar()


@pytest.mark.xfail(strict=True, raises=InconsistentDiagram, reason=(
    "apply_move is a raw rewrite: R2 on trefoil edges (2, 5) builds a PD "
    "with 5 faces for 5 crossings (Euler's formula needs 7); replay and "
    "the engine reject that frame, apply_move does not"))
def test_r2_insert_keeps_the_diagram_planar():
    mv.apply_move(TREFOIL, mv.Move("R2", edges=(2, 5))).check_planar()


def test_r2_on_unlink():
    d = mv.apply_move(dg.unlink(2), mv.Move("R2", edges=(1, 2)))
    assert d.n_crossings == 2 and d.n_components == 2
    assert lee.s2(d) == 1
    back = mv.apply_move(d, mv.Move("R2", crossings=(0, 1)))
    assert back.same_diagram(dg.unlink(2))


def test_r2_rejects_non_bigon():
    with pytest.raises(InapplicableMove):
        mv.apply_move(TREFOIL, mv.Move("R2", crossings=(0, 1)))


def test_r3_preserves_invariants():
    def invariants(d):
        cx = lee.FilteredComplex(d, whole=True)
        return lee.s2(d), cx.homology_dimension()

    d = dg.parse_braid([1, 2, 1, 2, 2], 3)
    base = invariants(d)
    applied = 0
    for ks in itertools.combinations(range(d.n_crossings), 3):
        try:
            d2 = mv.apply_move(d, mv.Move("R3", crossings=ks))
        except InapplicableMove:
            continue
        applied += 1
        assert invariants(d2) == base
    assert applied >= 1


# -- replay and ledger ----------------------------------------------------------


def test_validate_genus1_movie():
    ledger = mv.validate_movie(genus1_trefoil_movie())
    assert ledger.chi == -2
    assert ledger.k == 1
    assert ledger.end.n_crossings == 0
    assert ledger.end.n_components == 1
    assert ledger.kinds == ["I", "U", "R", "R", "R"]
    cert = ledger.lemma2_certificate()
    assert cert["applies"]
    # s_2(trefoil) - 1*(-2) >= s_2(unknot), tight
    assert lee.s2(TREFOIL) - ledger.chi == lee.s2(ledger.end)


def test_replay_determinism():
    movie = genus1_trefoil_movie()
    l1, l2 = mv.validate_movie(movie), mv.validate_movie(movie)
    assert l1.chi == l2.chi and l1.kinds == l2.kinds
    assert l1.end.same_diagram(l2.end)


def test_chi_additivity():
    movie = genus1_trefoil_movie()
    full = mv.validate_movie(movie).chi
    first = mv.validate_movie(mv.Movie(TREFOIL, movie.moves[:2])).chi
    mid = mv.validate_movie(mv.Movie(TREFOIL, movie.moves[:2])).end
    second = mv.validate_movie(mv.Movie(mid, movie.moves[2:])).chi
    assert full == first + second


def test_component_count_deltas():
    ledger = mv.validate_movie(genus1_trefoil_movie())
    deltas = [b.n_components - a.n_components
              for a, b in zip(ledger.frames, ledger.frames[1:])]
    assert deltas == [1, -1, 0, 0, 0]


def test_invalid_move_reports_index():
    movie = mv.Movie(TREFOIL, [mv.Move("R1+", crossings=(0,))])
    with pytest.raises(InapplicableMove) as exc:
        mv.validate_movie(movie)
    assert exc.value.index == 0


def test_h0_only_movie():
    ledger = mv.validate_movie(mv.Movie(dg.unknot(), [mv.Move("H0")]))
    assert ledger.chi == 1
    assert ledger.end.n_components == 2
    assert ledger.k == 2
    # a bare birth does not carry the generator to a multiple
    assert not ledger.lemma2_certificate()["applies"]


def test_h0_absorbed_by_fusion():
    u = dg.unknot()
    movie = mv.Movie(u, [mv.Move("H0"), mv.Move("H1", edges=(1, 2))])
    ledger = mv.validate_movie(movie)
    assert ledger.chi == 0
    assert ledger.k == 1
    assert ledger.lemma2_certificate()["applies"]


# -- generator fate ---------------------------------------------------------------


def test_constant_labels_survive():
    survives, end = mv.generator_fate(genus1_trefoil_movie(), (1,))
    assert survives and end == (1,)


def test_unequal_labels_annihilate_under_fusion():
    movie = mv.Movie(HOPF, [mv.Move("H1", edges=(1, 4))])
    assert mv.generator_fate(movie, (1, 1))[0]
    assert not mv.generator_fate(movie, (1, -1))[0]


def test_fission_duplicates_labels():
    movie = mv.Movie(TREFOIL, [mv.Move("H1", edges=(1, 3))])
    survives, end = mv.generator_fate(movie, (-1,))
    assert survives and end == (-1, -1)


# -- the replay generator against the two loops it replaced ---------------------


def reference_validate(movie):
    """``validate_movie`` as its own replay loop."""
    d = movie.start
    chi = 0
    frames = [d]
    kinds = []
    sheet = {}
    parents = {}

    def find(s):
        while parents[s] != s:
            parents[s] = parents[parents[s]]
            s = parents[s]
        return s

    next_id = 0
    for comp in d.components:
        parents[next_id] = next_id
        for e in comp:
            sheet[e] = next_id
        next_id += 1
    n_start_sheets = next_id
    h0_sheets = []

    for i, m in enumerate(movie.moves):
        try:
            d2, info = mv._apply(d, m)
        except InapplicableMove as exc:
            raise InapplicableMove(f"move {i} ({m.kind}): {exc}", index=i) from exc
        if info["spliced"]:
            e1, e2 = info["spliced"]
            r1, r2 = find(sheet[e1]), find(sheet[e2])
            if r1 != r2:
                parents[r1] = r2
            winner = sheet[e1]
            for cid in {d.edge_component[e1], d.edge_component[e2]}:
                for e in d.components[cid]:
                    sheet[e] = winner
        for new, parent in info["inherit"].items():
            if parent in sheet:
                sheet[new] = sheet[parent]
        for e in info["births"]:
            if e not in sheet:
                parents[next_id] = next_id
                sheet[e] = next_id
                if m.kind == "H0":
                    h0_sheets.append(next_id)
                next_id += 1
        if m.kind == "H1":
            kinds.append(mv._classify("H1", d2.n_components < d.n_components))
        else:
            kinds.append(mv._classify(m.kind, None))
        chi += mv.CHI[m.kind]
        d = d2
        frames.append(d)

    k = len({find(s) for s in range(next_id)})
    start_roots = {find(s) for s in range(n_start_sheets)}
    h0_absorbed = all(find(s) in start_roots for s in h0_sheets)
    return mv.Ledger(chi=chi, end=d, frames=frames, kinds=kinds, k=k,
                     h0_absorbed=h0_absorbed)


def reference_fate(movie, labeling, birth_label=1):
    """``generator_fate`` as its own replay loop."""
    d = movie.start
    label = {}
    for comp, lab in zip(d.components, labeling):
        for e in comp:
            label[e] = lab
    survives = True
    for i, m in enumerate(movie.moves):
        d2, info = mv._apply(d, m)
        if info["spliced"]:
            e1, e2 = info["spliced"]
            if label[e1] != label[e2]:
                survives = False
            winner = label[e1]
            for cid in {d.edge_component[e1], d.edge_component[e2]}:
                for e in d.components[cid]:
                    label[e] = winner
        for new, parent in info["inherit"].items():
            label[new] = label.get(parent, label.get(new))
        for e in info["births"]:
            label.setdefault(e, birth_label)
        d = d2
    return survives, tuple(label[min(comp)] for comp in d.components)


STARTS = [TREFOIL, HOPF, dg.unknot(), dg.unlink(3),
          dg.parse_braid([1, -2, 1, -2], 3), dg.parse_braid([1, 2, 1, 2, 2], 3)]


def draw_move(data, d):
    """A move of any kind on the edges and crossings of ``d``; it may not
    apply."""
    if not d.edges:
        return mv.Move("H0")
    kind = data.draw(st.sampled_from(sorted(mv.CHI)))
    size = {"R1+": 1, "R1-": 1, "R2": 2, "R3": 3, "H0": 0, "H1": 2, "H2": 1}
    count = size[kind]
    n = d.n_crossings
    if kind == "R3" or (kind[0] == "R" and n and data.draw(st.booleans())):
        # insertions append their crossings, so the last ones often bound
        # a kink or a bigon
        last = st.just(list(range(max(n - count, 0), n)))
        crossings = st.lists(st.integers(0, max(n - 1, 0)), min_size=count,
                             max_size=count, unique=n >= count)
        return mv.Move(kind, crossings=data.draw(last | crossings))
    return mv.Move(kind, edges=data.draw(
        st.lists(st.sampled_from(d.edges), min_size=count, max_size=count)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_matches_the_reference_loops(data):
    start = data.draw(st.sampled_from(STARTS))
    d, moves = start, []
    for _ in range(data.draw(st.integers(0, 10))):
        m = draw_move(data, d)
        try:
            d2 = mv.apply_move(d, m)
            d2.check_planar()
        except (InapplicableMove, InputError):
            continue
        d = d2
        moves.append(m)
    movie = mv.Movie(start, moves)
    ref, got = reference_validate(movie), mv.validate_movie(movie)
    assert (got.chi, got.kinds, got.k, got.h0_absorbed) == (
        ref.chi, ref.kinds, ref.k, ref.h0_absorbed)
    assert [(f.crossings, f.loops) for f in got.frames] == [
        (f.crossings, f.loops) for f in ref.frames]
    assert got.end is got.frames[-1]
    signs = st.sampled_from([-1, 1])
    labeling = data.draw(st.lists(signs, min_size=start.n_components,
                                  max_size=start.n_components))
    birth = data.draw(signs)
    assert mv.generator_fate(movie, labeling, birth) == reference_fate(
        movie, labeling, birth)


# -- ordering ------------------------------------------------------------------


def test_lobb_order_examples():
    u = dg.unknot()
    seq = mv.Movie(u, [mv.Move("H0"),
                       mv.Move("R2", edges=(1, 2)),
                       mv.Move("R2", crossings=(0, 1)),
                       mv.Move("H1", edges=(1, 2)),
                       mv.Move("R1+", edges=(1,)),
                       mv.Move("R1+", crossings=(0,))])
    # O R R U R R: phases 1, 2, 3, 6
    assert mv.check_lobb_order(mv.validate_movie(seq)) is None

    bad = mv.Movie(TREFOIL, [mv.Move("H1", edges=(1, 3)), mv.Move("H0")])
    assert mv.check_lobb_order(mv.validate_movie(bad)) == 1


def test_lobb_order_genus1():
    ledger = mv.validate_movie(genus1_trefoil_movie())
    assert mv.check_lobb_order(ledger) is None


def test_lobb_order_rejects_fission_after_death():
    u3 = dg.unlink(3)
    movie = mv.Movie(u3, [mv.Move("H2", edges=(3,)),
                          mv.Move("H1", edges=(1, 1))])
    assert mv.check_lobb_order(mv.validate_movie(movie)) == 1


# -- certificates -----------------------------------------------------------------


def test_slice_certificate_trefoil():
    ledger = mv.validate_movie(genus1_trefoil_movie())
    cert = mv.slice_certificate(ledger, 2)
    assert cert == {
        "theorem": "genus bound for slice surfaces",
        "n": 2, "chi_movie": -2, "chi_F": -1, "k": 1, "end_circles": 1,
        "lo": -2, "hi": 2,
        "inequalities": ["s_2(L) >= (2-1)*(chi(F)-1) = -2",
                         "(2-1)*(2k-1-chi(F)) = 2 >= s_2(L)"]}
    assert cert["lo"] <= lee.s2(TREFOIL) <= cert["hi"]
    cert5 = mv.slice_certificate(ledger, 5)
    assert (cert5["lo"], cert5["hi"]) == (-8, 8)


def test_slice_certificate_needs_unlink():
    movie = mv.Movie(TREFOIL, [mv.Move("R1+", edges=(1,))])
    with pytest.raises(NotEndingInUnlink):
        mv.slice_certificate(mv.validate_movie(movie), 2)


def test_annulus_movie_forces_equality():
    """R-moves only: chi = 0 in both directions, so s2 is pinned."""
    forward = [mv.Move("R1-", edges=(2,)), mv.Move("R2", edges=(1, 4))]
    led = mv.validate_movie(mv.Movie(TREFOIL, forward))
    assert led.chi == 0
    other = led.end
    assert not other.same_diagram(TREFOIL)
    backward = [mv.Move("R2", crossings=(other.n_crossings - 2,
                                         other.n_crossings - 1)),
                mv.Move("R1-", crossings=(3,))]
    led_back = mv.validate_movie(mv.Movie(other, backward))
    assert led_back.chi == 0
    assert led_back.end.same_diagram(TREFOIL)
    assert lee.s2(TREFOIL) == lee.s2(other)


# -- files -------------------------------------------------------------------------


def test_movie_file_roundtrip(tmp_path):
    movie = genus1_trefoil_movie()
    records = [{"start": dg.serialize_pd(movie.start)}]
    records += [m.to_dict() for m in movie.moves]
    path = tmp_path / "movie.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    loaded = mv.load_movie(path)
    assert loaded.start.crossings == movie.start.crossings
    assert loaded.moves == movie.moves
    l1, l2 = mv.validate_movie(movie), mv.validate_movie(loaded)
    assert l1.chi == l2.chi and l1.end.same_diagram(l2.end)

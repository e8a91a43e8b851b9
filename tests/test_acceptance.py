"""Acceptance gate: one test (one pass/fail line) per criterion.

Every check here is integer-exact unless a timing budget is stated.
"""

import time

from linksn import calculus as ca
from linksn import diagram as dg
from linksn import lee
from linksn import movie as mv
from linksn import verify

TREFOIL = dg.parse_braid([1, 1, 1], 2)


def test_criterion_1_engine_matches_positive_formula():
    """s2 equals (1-2)(c-r+1) on every positive corpus diagram, each
    computed in under 10 seconds."""
    diagrams = ([dg.parse_braid([1] * k, 2) for k in range(1, 7)]
                + [dg.torus_link(2, 3), dg.torus_link(2, 4),
                   dg.torus_link(2, 5), dg.torus_link(3, 3),
                   dg.torus_link(3, 4)])
    for d in diagrams:
        assert d.is_positive and d.n_crossings <= 10
        st = dg.resolution_stats(d)
        t0 = time.monotonic()
        assert lee.s2(d) == -(st.c - st.r + 1)
        assert time.monotonic() - t0 < 10


def test_criterion_2_unlink_values():
    for m in range(1, 6):
        assert lee.s2(dg.unlink(m)) == m - 1
    for m in range(1, 6):
        for n in range(2, 7):
            assert ca.sn_eval(ca.StronglySliceLink(m), n).value \
                == (n - 1) * (m - 1)


def test_criterion_3_sign_convention_lock():
    values = {
        "right trefoil": (TREFOIL, -2),
        "left trefoil": (dg.mirror(TREFOIL), 2),
        "figure-eight": (dg.parse_braid([1, -2, 1, -2], 3), 0),
        "hopf+": (dg.parse_braid([1, 1], 2), -1),
        "hopf-": (dg.parse_braid([-1, -1], 2), 1),
    }
    for name, (d, expected) in values.items():
        assert lee.s2(d) == expected, name
    # the mirror window 0 <= s2(L) + s2(mirror L) <= 2l - 2, exactly
    for d in (TREFOIL, dg.parse_braid([1, 1], 2),
              dg.parse_braid([1, -2, 1, -2], 3)):
        total = lee.s2(d) + lee.s2(dg.mirror(d))
        assert 0 <= total <= 2 * d.n_components - 2


def test_criterion_4_structural_properties():
    report = verify.run(properties=[
        "d-squared", "filtration-drop", "homology-dimension",
        "label-independence", "max-identity", "eq4.1", "low-generator"])
    failures = {k: v["failures"]
                for k, v in report["results"].items() if v["failures"]}
    assert report["ok"], failures


def test_criterion_5_crossing_change_bound():
    for name, d, _ in verify.corpus():
        if d.n_crossings == 0 or d.n_crossings > 8:
            continue
        base = lee.s2(d)
        for k in range(d.n_crossings):
            delta = lee.s2(dg.crossing_change(d, k)) - base
            assert abs(delta) <= 2, (name, k, delta)
    # the tight instance: changing a Hopf+ crossing gives the 2-unlink
    hopf = dg.parse_braid([1, 1], 2)
    changed = dg.crossing_change(hopf, 0)
    assert lee.s2(changed) == 1 and changed.is_pairwise_unlinked()
    assert lee.s2(changed) - lee.s2(hopf) == 2


def test_criterion_6_torus_corollaries():
    assert ca.torus_g4(2, 3) == 1
    assert ca.torus_g4(2, 4) == 1
    assert ca.torus_g4(3, 4) == 3
    assert ca.torus_splitting(2, 4) == 2
    assert ca.torus_splitting(3, 3) == 3
    assert ca.torus_splitting(2, 6) == 3
    # sp_lower_bound from engine values meets the schedule length
    for (l, p, q) in ((2, 1, 2), (3, 1, 1)):
        d = dg.torus_link(l * p, l * q)
        s_link = ca.SnValue(2, *(lee.s2(d),) * 2)
        parts = [ca.SnValue(2, *(lee.s2(dg.sublink(d, [i])),) * 2)
                 for i in range(d.n_components)]
        bound = ca.sp_lower_bound(s_link, parts, d.n_components)
        assert bound == len(ca.torus_split_schedule(l, p, q))


def test_criterion_7_additivity():
    t0 = time.monotonic()
    csum = dg.connect_sum(TREFOIL, 0, TREFOIL, 0)
    assert csum.n_crossings == 6
    assert lee.s2(csum) == -4
    assert time.monotonic() - t0 < 30
    assert lee.s2(dg.disjoint_union(TREFOIL, TREFOIL)) == -3


def test_criterion_8_cobordism_certificates():
    # a genus-1 movie from the trefoil to the unknot
    movie = mv.Movie(TREFOIL, [
        mv.Move("H1", edges=(1, 3), comment="fission"),
        mv.Move("H1", edges=(2, 4), comment="fusion"),
        mv.Move("R1+", crossings=(1,)),
        mv.Move("R1+", crossings=(0,)),
        mv.Move("R1+", crossings=(0,))])
    ledger = mv.validate_movie(movie)
    assert ledger.chi == -2
    assert ledger.end.n_crossings == 0 and ledger.end.n_components == 1
    assert mv.check_lobb_order(ledger)
    assert ledger.lemma2_certificate()["applies"]
    # tight at n=2: s2(trefoil) - 1*chi == s2(unknot), and the slice
    # certificate's lower endpoint is attained
    assert lee.s2(TREFOIL) - ledger.chi == lee.s2(ledger.end) == 0
    cert = mv.slice_certificate(ledger, 2)
    assert cert.lo == lee.s2(TREFOIL) == -2

    # an annulus movie (Reidemeister moves only) between two diagrams
    # of the same knot forces s2 equality
    forward = [mv.Move("R1-", edges=(2,)), mv.Move("R2", edges=(1, 4))]
    led = mv.validate_movie(mv.Movie(TREFOIL, forward))
    other = led.end
    assert led.chi == 0 and not other.same_diagram(TREFOIL)
    backward = [mv.Move("R2", crossings=(other.n_crossings - 2,
                                         other.n_crossings - 1)),
                mv.Move("R1-", crossings=(3,))]
    led_back = mv.validate_movie(mv.Movie(other, backward))
    assert led_back.chi == 0 and led_back.end.same_diagram(TREFOIL)
    # both certified inequalities hold with chi = 0, pinning the value
    assert lee.s2(TREFOIL) == lee.s2(other)


def test_criterion_9_interval_soundness():
    """No general-n engine exists; the compensating guarantee is that
    every calculus interval contains the engine's exact n=2 value."""
    checks, failures = verify.check_interval_soundness(seed=7)
    assert checks == 20
    assert not failures, failures

import json
from pathlib import Path

import pytest

from linksn import calculus as ca
from linksn import cli
from linksn import diagram as dg
from linksn import lee
from linksn.errors import (
    InexactInput,
    MixedN,
    NotCoprime,
    NotPositiveDiagram,
    UnevaluableLeaf,
)

TREFOIL = dg.parse_braid([1, 1, 1], 2)
HOPF = dg.parse_braid([1, 1], 2)
ALL_NODES = Path(__file__).resolve().parent / "data" / "expr_all_nodes.json"


def test_positive_formula():
    assert ca.sn_positive(TREFOIL, 2).value == -2
    assert ca.sn_positive(TREFOIL, 5).value == -8
    assert ca.sn_positive(dg.torus_link(3, 4), 3).value == -12
    with pytest.raises(NotPositiveDiagram):
        ca.sn_positive(dg.mirror(TREFOIL), 2)


def test_positive_genus():
    assert ca.genus_positive(TREFOIL) == (1, 1)
    assert ca.genus_positive(dg.torus_link(3, 4)) == (3, 3)
    assert ca.genus_positive(dg.torus_link(2, 4)) == (1, 1)


def test_torus_g4():
    assert ca.torus_g4(2, 3) == 1
    assert ca.torus_g4(2, 4) == 1
    assert ca.torus_g4(3, 4) == 3


def test_torus_splitting():
    assert ca.torus_splitting(2, 4) == 2
    assert ca.torus_splitting(3, 3) == 3
    assert ca.torus_splitting(2, 6) == 3
    assert ca.torus_splitting(2, 3) == 0  # a knot needs no splitting


def test_torus_split_schedule():
    for l, p, q in [(2, 1, 2), (3, 1, 1), (2, 1, 3), (2, 2, 3)]:
        schedule = ca.torus_split_schedule(l, p, q)
        assert len(schedule) == l * (l - 1) * p * q // 2
        d = dg.torus_link(l * p, l * q)
        for k in schedule:
            d = dg.crossing_change(d, k)
        assert d.is_pairwise_unlinked()
    with pytest.raises(NotCoprime):
        ca.torus_split_schedule(2, 2, 2)


def test_mirror_rule_knot_exact():
    v = ca.sn_eval(ca.Mirror(ca.PositiveDiagram(TREFOIL)), 5)
    assert v.exact and v.value == 8


def test_mirror_rule_link_interval():
    v = ca.sn_eval(ca.Mirror(ca.PositiveDiagram(HOPF)), 2)
    assert (v.lo, v.hi) == (1, 3)  # -s <= s(mirror) <= (2l-2)(n-1) - s
    assert lee.s2(dg.mirror(HOPF)) == 1


def test_disjoint_union_rule():
    e = ca.DisjointUnion([ca.PositiveDiagram(TREFOIL)] * 2)
    assert ca.sn_eval(e, 2).value == -3
    assert ca.sn_eval(e, 3).value == -6
    e3 = ca.DisjointUnion([ca.Unknot()] * 3)
    assert ca.sn_eval(e3, 2).value == 2


def test_connect_sum_rule():
    e = ca.ConnectSum(ca.PositiveDiagram(TREFOIL), ca.PositiveDiagram(TREFOIL))
    assert ca.sn_eval(e, 2).value == -4
    assert lee.s2(e.realize()) == -4


def test_crossing_change_rule():
    e = ca.CrossingChange(ca.EngineDiagram(HOPF), 0)
    v = ca.sn_eval(e, 2)
    assert (v.lo, v.hi) == (-3, 1)
    assert v.lo <= lee.s2(e.realize()) <= v.hi


def test_concordance_rule():
    e = ca.ConcordantTo(ca.PositiveDiagram(TREFOIL), note="isotopy")
    assert ca.sn_eval(e, 4).value == ca.sn_positive(TREFOIL, 4).value


def test_strongly_slice():
    assert ca.sn_eval(ca.StronglySliceLink(4), 3).value == 6


def test_known_value_needs_provenance():
    with pytest.raises(InexactInput):
        ca.KnownValue(2, -2, 1, "")
    v = ca.KnownValue(3, -4, 1, "computed elsewhere")
    assert ca.sn_eval(v, 3).value == -4
    with pytest.raises(UnevaluableLeaf):
        ca.sn_eval(v, 2)


def test_engine_leaf_only_n2():
    e = ca.EngineDiagram(HOPF)
    assert ca.sn_eval(e, 2).value == -1
    with pytest.raises(UnevaluableLeaf):
        ca.sn_eval(e, 3)


def test_g4_lower_bound():
    assert ca.g4_lower_bound(ca.SnValue(2, -2, -2), 1) == 1
    assert ca.g4_lower_bound(ca.SnValue(2, -6, -6), 1) == 3
    assert ca.g4_lower_bound(ca.SnValue(2, -3, 1), 1) == 0
    assert ca.g4_lower_bound(ca.SnValue(2, -6, -4), 1) == 2
    assert ca.g4_lower_bound(ca.SnValue(5, -8, -8), 1) == 1
    assert ca.g4_lower_bound(ca.SnValue(2, -3, -3), 2) == 1


def test_sp_lower_bound():
    s_link = ca.SnValue(2, -3, -3)
    parts = [ca.SnValue(2, 0, 0)] * 2
    assert ca.sp_lower_bound(s_link, parts, 2) == 2
    assert ca.sp_lower_bound(ca.SnValue(2, -4, -4),
                             [ca.SnValue(2, 0, 0)] * 3, 3) == 3
    with pytest.raises(MixedN):
        ca.sp_lower_bound(s_link, [ca.SnValue(3, 0, 0)] * 2, 2)
    with pytest.raises(InexactInput):
        ca.sp_lower_bound(ca.SnValue(2, -3, 1), parts, 2)


def test_diagram_interval():
    fig8 = dg.parse_braid([1, -2, 1, -2], 3)
    v = ca.sn_diagram_interval(fig8, 2)
    assert v.lo <= lee.s2(fig8) <= v.hi
    assert ca.sn_diagram_interval(TREFOIL, 4).value == -6


def test_expression_serialization():
    e = ca.Mirror(ca.ConnectSum(ca.PositiveDiagram(TREFOIL),
                                ca.CrossingChange(ca.PositiveDiagram(HOPF), 1)))
    e2 = ca.expr_from_json(ca.expr_to_json(e))
    for n in (2, 3):
        v1, v2 = ca.sn_eval(e, n), ca.sn_eval(e2, n)
        assert (v1.lo, v1.hi) == (v2.lo, v2.hi)
    engine = ca.expr_from_json(ca.expr_to_json(ca.EngineDiagram(HOPF)))
    assert ca.sn_eval(engine, 2).value == -1


def node_samples():
    """The first node of each type in an expression file that uses all
    ten, with every optional field written out."""
    samples = {}
    todo = [json.loads(ALL_NODES.read_text())]
    while todo:
        node = todo.pop(0)
        samples.setdefault(node["type"], node)
        todo += node.get("children", [])
        todo += [node[k] for k in ("left", "right", "child") if k in node]
    return samples


# the fields a node cannot do without, by their JSON keys
REQUIRED = {"PositiveDiagram": {"pd"}, "EngineDiagram": {"pd"},
            "Unknot": set(), "StronglySliceLink": {"l"},
            "KnownValue": {"n", "value", "l", "provenance"},
            "DisjointUnion": {"children"}, "ConnectSum": {"left", "right"},
            "Mirror": {"child"}, "CrossingChange": {"child"},
            "ConcordantTo": {"child"}}


def test_every_node_type_roundtrips():
    samples = node_samples()
    assert set(samples) == set(ca.NODES) == set(REQUIRED)
    unmarked = {"type": "CrossingChange", "child": {"type": "Unknot"},
                "crossing": None}
    for data in [*samples.values(), unmarked]:
        expr = ca.expr_from_dict(data)
        assert type(expr) is ca.NODES[data["type"]]
        text = ca.expr_to_json(expr)
        assert json.loads(text) == data
        assert ca.expr_to_json(ca.expr_from_json(text)) == text


def eval_exit_code(tmp_path, node):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(node))
    return cli.main(["eval", "--expr", str(path)])


def test_a_missing_or_mistyped_field_exits_2(tmp_path, capsys):
    for kind, node in node_samples().items():
        for key, value in node.items():
            if key == "type":
                continue
            cases = [{**node, key: "a" if type(value) in (int, dict) else 5}]
            without = {k: v for k, v in node.items() if k != key}
            if key in REQUIRED[kind]:
                cases.append(without)
            else:
                ca.expr_from_dict(without)
            for case in cases:
                assert eval_exit_code(tmp_path, case) == 2, case
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1


def test_component_counts():
    e = ca.DisjointUnion([ca.PositiveDiagram(HOPF), ca.Unknot()])
    assert e.components() == 3
    cs = ca.ConnectSum(ca.PositiveDiagram(HOPF), ca.PositiveDiagram(HOPF))
    assert cs.components() == 3


def test_n_below_two_rejected():
    with pytest.raises(ValueError):
        ca.sn_eval(ca.Unknot(), 1)
    with pytest.raises(ValueError):
        ca.sn_positive(TREFOIL, 0)

import argparse
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linksn
from linksn import cli
from linksn import diagram as dg
from linksn import movie as mv

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--json")
    return code, json.loads(text)


def test_invariant_braid_range():
    code, report = run_json("invariant", "--braid", "1 1 1",
                            "--strands", "2", "--n", "2..4")
    assert code == 0
    assert report["s_n"]["2"] == {"exact": -2}
    assert report["s_n"]["3"] == {"exact": -4}
    assert report["s_n"]["4"] == {"exact": -6}
    assert report["stats"] == {"c": 3, "r": 2, "w": 3, "l": 1}


def test_invariant_torus():
    code, report = run_json("invariant", "--torus", "2", "4")
    assert code == 0
    assert report["s_n"]["2"] == {"exact": -3}
    assert report["bounds"]["g4_torus"] == 1
    assert report["bounds"]["sp_torus"] == 2
    assert report["bounds"]["sp_lb"] == 2


def test_invariant_empty_pd(capsys):
    # the empty link has no s_n: the engine's and the positive formula's
    # refusals each exit 2 on one line, with nothing on stdout
    for argv in (("invariant", "--pd", ""),
                 ("bounds", "--pd", "", "--n", "3..4", "--json")):
        assert run_cli(*argv) == (2, ""), argv
        assert "empty link is undefined" in assert_one_line_error(capsys)


def test_invariant_pd_input():
    code, report = run_json("invariant", "--pd",
                            "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")
    assert code == 0
    assert report["s_n"]["2"] == {"exact": -2}


def test_invariant_interval_for_nonpositive():
    code, report = run_json("invariant", "--braid", "1 -2 1 -2",
                            "--strands", "3", "--n", "3..3")
    assert code == 0
    v = report["s_n"]["3"]
    assert v["lo"] <= v["hi"] and "exact" not in v
    assert report["trace"]


def test_bad_inputs_exit_2(tmp_path, capsys):
    assert run_cli("invariant", "--pd", "X[1,2,3]")[0] == 2
    assert run_cli("invariant", "--braid", "5", "--strands", "2")[0] == 2
    assert run_cli("invariant", "--braid", "1", "--strands", "2",
                   "--n", "0..2")[0] == 2
    assert run_cli("invariant", "--pd", "U", "--torus", "2", "3")[0] == 2
    assert run_cli("eval", "--expr", "/nonexistent.json")[0] == 2
    capsys.readouterr()
    assert run_cli("invariant", "--braid", "1 x", "--strands", "2")[0] == 2
    assert "--braid '1 x'" in assert_one_line_error(capsys)
    # a PD quoted in its error, newline and all, stays on one line
    for pd in ("X[1,\n1,2,2{}]", "X[1,\n2,3]"):
        assert run_cli("invariant", "--pd", pd)[0] == 2
        assert repr(pd) in assert_one_line_error(capsys)
    # too large: 16 crossings alternating in sign hold 16 873 748
    # generators in degrees -1..0
    assert run_cli("invariant", "--braid", " ".join(["1 -1"] * 8),
                   "--strands", "2")[0] == 2
    assert_one_line_error(capsys)
    # counts of thousands of digits: at least 2^99999 generators in the
    # two resolutions of a negative crossing on 100 000 strands,
    # C(20000, 10000) resolutions in degree 0 of 20 000 crossings
    # alternating in sign
    for word, strands, count in (
            ("-1", "100000", "at least 2^99999 generators"),
            (" ".join(["1 -1"] * 10000), "2", "2^")):
        assert run_cli("invariant", "--braid", word,
                       "--strands", strands)[0] == 2
        err = assert_one_line_error(capsys)
        assert len(err) < 200 and "budget" in err and count in err, err
    # its mirror is positive: over the budget too, but the positive
    # formula answers it
    assert run_cli("invariant", "--braid", "1", "--strands", "100000")[0] == 0
    # sizes past an index: no list of that many strands or crossings is
    # asked for
    huge = "99999999999999999999999"
    for args in (("--braid", "1", "--strands", huge), ("--torus", huge, "2"),
                 ("--torus", "2", huge)):
        assert run_cli("invariant", *args)[0] == 2
        assert_one_line_error(capsys)
    # not too large: 20 positive crossings hold 4
    code, report = run_json("invariant", "--torus", "2", "20")
    assert code == 0 and report["s_n"]["2"] == {"exact": -19}
    # expression leaves that describe no link
    for leaf in ({"type": "StronglySliceLink", "l": 0},
                 {"type": "KnownValue", "n": 2, "value": 0, "l": 0,
                  "provenance": "p"},
                 {"type": "KnownValue", "n": 1, "value": 0, "l": 1,
                  "provenance": "p"},
                 {"type": "PositiveDiagram", "pd": ""},
                 {"type": "EngineDiagram", "pd": ""}):
        text = json.dumps({"type": "Mirror", "child": leaf})
        assert run_on_file(tmp_path, "eval", text) == 2, leaf
        assert_one_line_error(capsys)


def test_settable_options():
    # the engine's size is bounded by lee.MAX_GENERATORS, not by an option
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
    diagram = {"--pd", "--braid", "--strands", "--torus", "--n", "--json"}
    assert options == {
        "invariant": diagram,
        "bounds": diagram,
        "eval": {"--expr", "--n", "--json"},
        "movie": {"--movie", "--n", "--json"},
        "verify": {"--property", "--seed", "--json"},
    }


def test_two_calls_build_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli("bounds", "--torus", "2", "3")[0] == 0
    once = len(built)
    assert run_cli("bounds", "--torus", "2", "3")[0] == 0
    # the top parser and its five subparsers
    assert once == len(built) == 6


def test_n_range_is_checked_before_any_command(tmp_path, capsys):
    # a movie that does not end in an unlink prints no certificate, an
    # empty diagram has no s_n, and "2..3..9" is not
    # "2..3": each still has its --n checked
    still = tmp_path / "still.jsonl"
    still.write_text('{"start": "X[2,6,3,5] X[4,2,5,1] X[6,4,1,3]"}\n')
    for argv in (
            ("movie", "--movie", str(still), "--n", "abc"),
            ("invariant", "--pd", "", "--n", "abc"),
            ("invariant", "--braid", "1 1 1", "--strands", "2",
             "--n", "2..3..9")):
        assert run_cli(*argv) == (2, ""), argv
        assert_one_line_error(capsys)


def test_n_range_is_bounded(capsys):
    code, report = run_json("invariant", "--torus", "2", "3",
                            "--n", "2..1001")
    assert code == 0 and len(report["n"]) == 1000
    assert run_cli("invariant", "--torus", "2", "3", "--n", "2..1002")[0] == 2
    assert_one_line_error(capsys)


def test_bounds_command():
    code, report = run_json("bounds", "--torus", "3", "4")
    assert code == 0
    assert report["bounds"]["g4"] == 3
    assert report["bounds"]["g4_lb(n=2)"] == 3


def test_bounds_on_split_positive_diagrams():
    # a 2-component unlink, and trefoil and trefoil side by side: the
    # genus counts each split piece's Seifert surface
    for word, genus in ("1 3", 0), ("1 1 1 3 3 3", 2):
        code, report = run_json("bounds", "--braid", word, "--strands", "4")
        assert code == 0
        assert (report["bounds"]["g3"], report["bounds"]["g4"]) == (genus,
                                                                    genus)


@pytest.mark.parametrize("p, q", [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6),
                                  (4, 2), (4, 6), (6, 4)])
def test_bounds_split_positive_torus_links_exactly(p, q):
    code, report = run_json("bounds", "--torus", str(p), str(q))
    assert code == 0
    assert report["bounds"]["sp_lb"] == report["bounds"]["sp_torus"]


def test_positive_diagrams_over_the_budget_take_the_formula():
    # 21 Seifert circles: 2^21 generators in the one resolution of degree 0
    code, report = run_json("invariant", "--torus", "21", "22")
    assert code == 0 and report["s_n"]["2"] == {"exact": -420}
    assert report["trace"] == [
        "positive diagram: s_n = (1-n)(c-r+1) with c=440, r=21"]
    code, report = run_json("bounds", "--torus", "22", "44")
    assert code == 0 and report["s_n"]["2"] == {"exact": -903}
    bounds = report["bounds"]
    assert bounds["g3"] == bounds["g4"] == 441
    assert bounds["sp_lb"] == bounds["sp_torus"] == 462
    code, report = run_json("invariant", "--braid", "1", "--strands", "100000")
    assert code == 0 and report["s_n"]["2"] == {"exact": 99998}
    assert report["bounds"]["g3"] == report["bounds"]["g4"] == 0


def test_eval_command(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "type": "Mirror",
        "child": {"type": "PositiveDiagram",
                  "pd": "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"}}))
    code, report = run_json("eval", "--expr", str(path), "--n", "5..5")
    assert code == 0
    assert report["s_n"]["5"] == {"exact": 8}


def test_eval_engine_refinement(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "type": "CrossingChange", "crossing": 0,
        "child": {"type": "EngineDiagram",
                  "pd": "Xp[2,3,1,4] X[3,2,4,1]"}}))
    code, report = run_json("eval", "--expr", str(path))
    assert code == 0
    assert report["s_n"]["2"] == {"lo": -3, "hi": 1}
    assert report["engine_refinement"]["exact"] == 1


def test_movie_command(tmp_path):
    tref = dg.parse_braid([1, 1, 1], 2)
    movie = mv.Movie(tref, [
        mv.Move("H1", edges=(1, 3)), mv.Move("H1", edges=(2, 4)),
        mv.Move("R1+", crossings=(1,)), mv.Move("R1+", crossings=(0,)),
        mv.Move("R1+", crossings=(0,))])
    # parse_braid numbers the trefoil as PD text does, so the moves'
    # edge ids and crossing indices name the same parts of the file's start
    assert dg.parse_pd(dg.serialize_pd(tref)).crossings == tref.crossings
    records = [{"start": dg.serialize_pd(tref)}]
    records += [m.to_dict() for m in movie.moves]
    path = tmp_path / "movie.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, report = run_json("movie", "--movie", str(path))
    assert code == 0
    assert report["chi"] == -2
    assert report["move_order_ok"]
    assert report["slice_certificates"][0]["lo"] == -2


def test_movie_ending_in_the_empty_link_certifies_nothing(tmp_path):
    # s_n of the empty link is undefined, so neither inequality is stated
    path = tmp_path / "movie.jsonl"
    path.write_text('{"start": "U"}\n{"kind": "H2", "edges": [1]}\n')
    code, report = run_json("movie", "--movie", str(path))
    assert code == 0 and report["end"] == ""
    assert report["lemma2"]["applies"] is False
    assert "slice_certificates" not in report


def test_movie_starting_in_the_empty_link_certifies_nothing(tmp_path):
    # a birth from the empty link: s_n of the start is undefined, so
    # neither genus bound is stated (they read 1 <= s_2 <= -1)
    path = tmp_path / "movie.jsonl"
    path.write_text('{"start": ""}\n{"kind": "H0"}\n')
    code, report = run_json("movie", "--movie", str(path))
    assert code == 0 and report["end"] == "U"
    assert report["lemma2"]["applies"] is False
    assert "slice_certificates" not in report
    code, text = run_cli("movie", "--movie", str(path))
    assert code == 0 and "s_2(L)" not in text


def test_verify_command():
    code, report = run_json("verify", "--property", "unlink-values")
    assert code == 0
    assert report["ok"]


def test_verify_unknown_property(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--property", "nonsense")
    assert exc.value.code == 2
    assert "invalid choice: 'nonsense'" in assert_one_line_error(capsys)


def test_argument_errors_exit_2_on_one_line(capsys):
    for argv in (["movie", "--movie"], [], ["invariant", "--bogus"],
                 ["invariant", "--pd", "U", "a\nb"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv
        assert_one_line_error(capsys)


def test_the_benchmark_tracer_wraps_what_the_cli_runs():
    """The traced benchmark run wraps library callables by name, each in
    its module or its own class, and reads the ledger and the complex it
    is handed.  Installing its tracer and running an engine op and a
    movie op through ``cli.main`` fails here when a rename or a move
    breaks one of those names; the output is the untraced output."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod in {mod for targets in spans.LAYERS.values()
                for mod, _, _ in targets}:
        importlib.import_module(f"linksn.{mod}")
    ops = [("invariant", "--braid", "1 -2 1 -2", "--strands", "3"),
           ("movie", "--movie", str(DATA / "trefoil_genus1_movie.jsonl"),
            "--n", "2..3")]
    untraced = [run_cli(*argv) for argv in ops]
    main, validate = cli.main, mv.validate_movie
    tracer = spans.Tracer()
    tracer.install(linksn)
    try:
        assert cli.main is not main
        assert [run_cli(*argv) for argv in ops] == untraced
    finally:
        tracer.uninstall()
    assert (cli.main, mv.validate_movie) == (main, validate)
    assert tracer.calls["cli.main"] == 2
    assert tracer.counts["lee.builds"] >= 1 and tracer.counts["lee.nnz"] > 0
    assert (tracer.counts["movie.replays"], tracer.counts["movie.frames"]) == (
        1, 6)
    assert tracer.calls["movie.order"] == 1 and tracer.calls["movie.cert"] >= 1


def test_json_report_roundtrips():
    _, report = run_json("invariant", "--torus", "2", "4")
    again = json.loads(json.dumps(report))
    assert again == report


def test_recorded_reports_unchanged(monkeypatch):
    """Each command prints, byte for byte, the report recorded before its
    code was reworked: ``invariant`` and ``bounds`` on a torus link and a
    braid, from when each had its own handler, and ``movie`` and ``eval``
    on the files in tests/data, from when each movie was replayed
    2 + |n| times and each expression node wrote its own JSON.  The same
    argv lists without ``--json``, and ``verify --seed 0``, pin the text
    output from when each command printed its own text."""
    monkeypatch.chdir(ROOT)
    cases = json.loads((DATA / "cli_reports.json").read_text())
    assert {c["argv"][0] for c in cases} == {"invariant", "bounds", "movie",
                                             "eval", "verify"}
    for case in cases:
        assert run_cli(*case["argv"]) == (0, case["stdout"])


def test_recorded_verify_reports_unchanged():
    """``verify --json`` prints, byte for byte, the report recorded for
    seeds 0-2 when ``FilteredComplex`` still took a degree window: every
    suite passes with the same number of checks."""
    cases = json.loads((DATA / "verify_reports.json").read_text())
    assert [c["argv"] for c in cases] == [
        ["verify", "--seed", str(seed), "--json"] for seed in range(3)]
    for case in cases:
        assert run_cli(*case["argv"]) == (0, case["stdout"])


def test_a_closed_stdout_keeps_the_exit_code():
    # the read end of the pipe is closed before the command prints
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linksn.cli", "movie", "--movie",
             str(DATA / "trefoil_genus1_movie.jsonl"), "--json"],
            stdout=write, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_movie_command_applies_each_move_once(monkeypatch):
    applied = []
    apply = mv._apply

    def counting(d, m):
        applied.append(m)
        return apply(d, m)
    monkeypatch.setattr(mv, "_apply", counting)
    path = DATA / "trefoil_genus1_movie.jsonl"
    code, report = run_json("movie", "--movie", str(path), "--n", "2..6")
    assert code == 0 and len(report["slice_certificates"]) == 5
    assert applied == mv.load_movie(path).moves


def run_on_file(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    flag = {"eval": "--expr", "movie": "--movie"}[command]
    return run_cli(command, flag, str(path))[0]


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_eval_rejects_a_top_level_list(tmp_path, capsys):
    assert run_on_file(tmp_path, "eval", '[{"type": "Unknot"}]') == 2
    assert_one_line_error(capsys)


def test_eval_rejects_a_node_without_its_child(tmp_path, capsys):
    assert run_on_file(tmp_path, "eval", '{"type": "Mirror"}') == 2
    assert_one_line_error(capsys)


def test_eval_rejects_a_field_of_the_wrong_type(tmp_path, capsys):
    for text in ('{"type": "DisjointUnion", "children": 5}',
                 '{"type": "StronglySliceLink", "l": "2"}',
                 '{"type": "Mirror", "child": {"type": "EngineDiagram", '
                 '"pd": 5}}',
                 '{"type": "CrossingChange", "crossing": "x", '
                 '"child": {"type": "Unknot"}}',
                 '{"type": "ConnectSum", "i1": "a", '
                 '"left": {"type": "Unknot"}, "right": {"type": "Unknot"}}',
                 '{"type": "StronglySliceLink", "l": true}',
                 '{"type": "CrossingChange", "crossing": 0, '
                 '"child": {"type": "DisjointUnion", "children": []}}',
                 '{"type": ["Unknot"]}'):
        assert run_on_file(tmp_path, "eval", text) == 2
        assert_one_line_error(capsys)


def test_eval_rejects_a_connect_sum_of_a_missing_component(tmp_path,
                                                         capsys):
    # the trefoil and its crossing change are knots: only component 0
    trefoil = {"type": "EngineDiagram",
               "pd": "X[2,6,3,5] X[4,2,5,1] X[6,4,1,3]"}
    node = {"type": "ConnectSum", "left": trefoil, "right": {
        "type": "CrossingChange", "crossing": 0, "child": trefoil}}
    for key, i in ("i1", 3), ("i2", 1), ("i1", -1):
        assert run_on_file(tmp_path, "eval",
                           json.dumps({**node, key: i})) == 2
        assert f"'{key}' of a ConnectSum node" in assert_one_line_error(capsys)
    assert run_on_file(tmp_path, "eval", json.dumps(node)) == 0


def test_eval_rejects_a_crossing_change_of_a_missing_crossing(tmp_path,
                                                              capsys):
    # the interval needs no crossing, but the engine refinement realizes
    # the change, so a crossing the trefoil lacks exits 2, not 0 unrefined
    trefoil = {"type": "EngineDiagram",
               "pd": "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"}
    for crossing in 7, -1:
        node = {"type": "CrossingChange", "crossing": crossing,
                "child": trefoil}
        assert run_on_file(tmp_path, "eval", json.dumps(node)) == 2
        assert "no crossing" in assert_one_line_error(capsys)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"type": "CrossingChange", "crossing": 1,
                                "child": trefoil}))
    code, report = run_json("eval", "--expr", str(path))
    assert code == 0 and report["engine_refinement"] == {"n": 2, "exact": 0}


def test_eval_rejects_a_deeply_nested_expression(tmp_path, capsys):
    # the deeper chain overflows inside the JSON parser, the shallower
    # one only in the tree builder
    for depth in (5000, sys.getrecursionlimit() // 2 + 50):
        text = ('{"type": "Mirror", "child": ' * depth + '{"type": "Unknot"}'
                + "}" * depth)
        assert run_on_file(tmp_path, "eval", text) == 2
        assert_one_line_error(capsys)


def test_movie_rejects_a_file_without_start(tmp_path, capsys):
    text = '{"pd": "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"}\n{"kind": "H0"}\n'
    assert run_on_file(tmp_path, "movie", text) == 2
    assert_one_line_error(capsys)


def test_movie_rejects_a_field_of_the_wrong_type(tmp_path, capsys):
    start = '{"start": "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"}\n'
    for text in ('{"start": 5}\n',
                 start + '{"kind": 3}\n',
                 start + '{"kind": "R1+", "edges": 5}\n',
                 start + '{"kind": "H0", "crossings": "0"}\n',
                 start + '{"kind": "R1+", "edges": [[1]]}\n',
                 start + '{"kind": "R1+", "crossings": ["x"]}\n',
                 '[1]\n'):
        assert run_on_file(tmp_path, "movie", text) == 2
        assert_one_line_error(capsys)


def test_movie_deeply_nested_record_exits_2(tmp_path, capsys):
    text = ('{"start": "U"}\n{"kind": "H0", "edges": '
            + "[" * 5000 + "]" * 5000 + "}\n")
    assert run_on_file(tmp_path, "movie", text) == 2
    assert_one_line_error(capsys)


def test_movie_names_the_move_of_a_bad_frame(tmp_path, capsys):
    # a frame that is not planar, a saddle on an edge the frame lacks, a
    # birth given ids it does not take, a saddle given a crossing, an R3
    # given an edge, and an R3 whose edges miss a strand level
    for text, prefix in (
            ('{"start": "X[2,6,3,5] X[4,2,5,1] X[6,4,1,3]"}\n'
             '{"kind": "R2", "edges": [2, 5]}\n', "error: move 0 (R2): "),
            ('{"start": "U"}\n{"kind": "H1", "edges": [1, 7]}\n',
             "error: move 0 (H1): "),
            ('{"start": "U"}\n'
             '{"kind": "H0", "edges": [7], "crossings": [3]}\n',
             "error: move 0 (H0): "),
            ('{"start": "U"}\n{"kind": "H0", "edges": [7]}\n',
             "error: move 0 (H0): "),
            ('{"start": "U U"}\n{"kind": "H1", "edges": [1, 2], '
             '"crossings": [0]}\n', "error: move 0 (H1): "),
            ('{"start": "U"}\n'
             '{"kind": "H2", "edges": [1], "crossings": [0]}\n',
             "error: move 0 (H2): "),
            ('{"start": "X[3,10,4,9] X[5,3,6,2] X[6,9,1,8] X[7,2,8,1] '
             'X[10,5,7,4]"}\n'
             '{"kind": "R3", "edges": [99], "crossings": [1, 3, 4]}\n',
             "error: move 0 (R3): "),
            # a "triangle" whose two edges at crossing 3 are both under
            ('{"start": "X[3,10,4,9] X[5,3,6,2] X[6,9,1,8] X[7,2,8,1] '
             'X[10,5,7,4]"}\n{"kind": "R1-", "edges": [8]}\n'
             '{"kind": "R3", "crossings": [1, 3, 2]}\n',
             "error: move 1 (R3): ")):
        assert run_on_file(tmp_path, "movie", text) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err


def test_r2_removal_keeps_the_link(tmp_path):
    # the unknot, kinked twice, then the two kinks' crossings removed as
    # one bigon: the bigon {3, 4} is a face, so the movie is legal
    text = ('{"start": "U"}\n{"kind": "R1-", "edges": [1]}\n'
            '{"kind": "R1+", "edges": [3]}\n'
            '{"kind": "R2", "crossings": [1, 0]}\n')
    (tmp_path / "m.jsonl").write_text(text)
    code, report = run_json("movie", "--movie", str(tmp_path / "m.jsonl"))
    assert code == 0 and report["end"] == "U"
    # three kinks; the first two bound an anti-parallel bigon, and the
    # strand runs straight from one to the other
    text = ('{"start": "U"}\n{"kind": "R1+", "edges": [1]}\n'
            '{"kind": "R1-", "edges": [3]}\n{"kind": "R1+", "edges": [5]}\n'
            '{"kind": "R2", "crossings": [0, 1]}\n')
    (tmp_path / "m.jsonl").write_text(text)
    code, report = run_json("movie", "--movie", str(tmp_path / "m.jsonl"))
    assert code == 0 and report["end"] == "Xp[1,1,2,2]"


def test_movie_names_an_r1_move_with_two_edges_or_crossings(tmp_path,
                                                            capsys):
    start = '{"start": "X[2,6,3,5] X[4,2,5,1] X[6,4,1,3]"}\n'
    for ids in ('"edges": [1, 2]', '"crossings": [0, 1]'):
        text = start + '{"kind": "R1+", %s}\n' % ids
        assert run_on_file(tmp_path, "movie", text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: move 0 (R1+): ") \
            and err.count("\n") == 1, err


def test_invariant_rejects_a_non_planar_pd(capsys):
    # the trefoil after an R2 whose frame is not planar
    pd = "X[4,10,5,9] X[6,2,7,1] X[7,3,8,2] X[8,3,9,4] X[10,6,1,5]"
    assert run_cli("invariant", "--pd", pd)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PD is not planar") and err.count("\n") == 1

import argparse
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sgfp
from sgfp.cli import COMMANDS, main
from sgfp.errors import SgfpError


@pytest.fixture
def fig1_files(tmp_path):
    graph = tmp_path / "g.edges"
    attrs = tmp_path / "a.csv"
    rc = main(["gen", "fig1", "--output", str(graph),
               "--attrs-output", str(attrs)])
    assert rc == 0
    return graph, attrs


def test_analyze_fig1(fig1_files, tmp_path):
    graph, attrs = fig1_files
    out = tmp_path / "report.json"
    rc = main(["analyze", str(graph), str(attrs), "--rational",
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["singular_gap"] == -1.125
    assert abs(report["r_da"] + 0.8005) < 1e-3


def test_analyze_per_node(fig1_files, capsys):
    graph, attrs = fig1_files
    rc = main(["analyze", str(graph), str(attrs), "--per-node"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["s"]) == 8
    assert len(report["delta"]) == 8


def test_analyze_degenerate_constant_attrs(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n")
    attrs = tmp_path / "a.csv"
    attrs.write_text("node,value\n1,5\n2,5\n3,5\n")
    rc = main(["analyze", str(graph), str(attrs)])
    assert rc == 2


@pytest.mark.parametrize("rational", [[], ["--rational"]])
def test_analyze_gap_beyond_float_range_exits_1(tmp_path, capsys, rational):
    graph, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
    graph.write_text("".join(f"c l{i}\n" for i in range(9)))
    attrs.write_text("node,value\nc,-1.7e308\n" + "".join(f"l{i},1.7e308\n" for i in range(9)))
    assert main(["analyze", str(graph), str(attrs), *rational]) == 1
    captured = capsys.readouterr()
    assert "Infinity" not in captured.out
    assert "singular_gap is not finite" in captured.err
    out = tmp_path / "report.json"
    assert main(["analyze", str(graph), str(attrs), *rational, "--output", str(out)]) == 1
    assert not out.exists()


def test_classify_star(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    main(["gen", "star", "--n", "6", "--output", str(graph)])
    rc = main(["classify", str(graph)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["kind"] == "ProSGFP"


def test_classify_regular_exits_2(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n3 1\n")
    assert main(["classify", str(graph)]) == 2


def test_classify_names_a_non_affine_anti_graph(tmp_path, capsys):
    # The line through node 0 and node 1 has slope <= 0, but no line fits at all.
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n0 2\n0 3\n1 3\n1 5\n2 4\n3 5\n")
    assert main(["classify", str(graph)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["kind"], result["reason"]) == (
        "AntiSGFP", "reciprocal-degree sums are not an affine function of degree")
    assert result["r_ddelta"] == pytest.approx(0.7348469228349535, rel=1e-15)


def test_parse_error_exits_1(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2 3 4\n")
    assert main(["classify", str(graph)]) == 1
    assert "error" in capsys.readouterr().err


def test_optimize_path5(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    rc = main(["optimize", str(graph), "--witness"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["r_high"] > 0
    assert len(result["witness"]) == 5


@pytest.mark.parametrize("epsilon", ["1e-200", "5e-324"])
def test_tiny_epsilon_exits_0(tmp_path, capsys, epsilon):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "3", "--output", str(graph)])
    assert main(["optimize", str(graph), "--epsilon", epsilon]) == 0
    assert -1.0 <= json.loads(capsys.readouterr().out)["r_high"] <= 1.0
    assert main(["census", "--nmin", "3", "--nmax", "4", "--samples", "20",
                 "--epsilon", epsilon]) == 0


def test_subnormal_epsilon_gap_stays_negative(tmp_path, capsys):
    # The witness's gap -epsilon/3 rounds to zero; it is reported as the
    # largest negative float instead of -0.0.
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "3", "--output", str(graph)])
    assert main(["optimize", str(graph), "--epsilon", "5e-324"]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] == -5e-324
    assert main(["optimize", str(graph), "--epsilon", "1e-300"]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] < -1e-301


def test_optimize_regular_exits_2(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n3 1\n")
    assert main(["optimize", str(graph)]) == 2


def test_threshold_path5(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    rc = main(["threshold", str(graph), "--grid", "64"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert abs(result["candidate_sup"] - 0.40824829) < 1e-6


def test_threshold_of_a_forced_anti_star_is_an_invariant_error(tmp_path, capsys, monkeypatch):
    """A star has corr(d, delta) = 1, so no anti graph looks like it: forced
    down the anti branch, the certificate reports the broken invariant."""
    classify_module = importlib.import_module("sgfp.classify")

    def anti(g):
        return classify_module.Classification(classify_module.ANTI, None, "forced", 1.0)

    monkeypatch.setattr(classify_module, "classify", anti)
    graph = tmp_path / "g.edges"
    main(["gen", "star", "--n", "6", "--output", str(graph)])
    capsys.readouterr()
    assert main(["threshold", str(graph)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_repeated_calls_share_no_state(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    out = tmp_path / "t.json"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    assert main(["threshold", str(graph), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["threshold", str(graph)]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["threshold", str(graph), "--grid", "abc"]) == 1
    assert main(["threshold", str(graph)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_census_small(tmp_path):
    out = tmp_path / "census.csv"
    rc = main(["census", "--nmin", "3", "--nmax", "4", "--samples", "20",
               "--seed", "1", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,samples,pro_count")
    assert len(lines) == 3
    assert lines[1].split(",")[:4] == ["3", "20", "20", "1.0"]


def test_grow(tmp_path):
    out = tmp_path / "grow.csv"
    rc = main(["grow", "3", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,n,gap,r"
    assert len(lines) == 5
    assert lines[1].split(",")[:2] == ["0", "8"]
    assert lines[4].split(",")[:2] == ["3", "20"]


def test_gen_fig4_attrs(tmp_path):
    graph = tmp_path / "g.edges"
    attrs = tmp_path / "a.csv"
    rc = main(["gen", "fig4", "--sample", "2", "--output", str(graph),
               "--attrs-output", str(attrs)])
    assert rc == 0
    rows = attrs.read_text().strip().splitlines()
    assert rows[0] == "node,value"
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "1", "3", "0"]


def test_propown(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("c l1\nc l2\nc l3\n")
    labels = tmp_path / "l.csv"
    labels.write_text("node,label\nc,M\nl1,M\nl2,M\nl3,F\n")
    rc = main(["propown", str(graph), str(labels)])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "node,value"
    values = dict(r.split(",") for r in rows[1:])
    assert abs(float(values["c"]) - 2 / 3) < 1e-12
    assert values["l3"] == "0.0"


def test_propown_tables_of_quoted_labels_read_back(tmp_path, capsys):
    # Labels holding ',' or '"', or opening with '"', must be quoted in the
    # written table, or analyze reads a row of three columns.
    graph = tmp_path / "g.edges"
    graph.write_text('a,b c\nc d\nd a,b\n"q c\nx"y d\n')
    labels = tmp_path / "l.csv"
    labels.write_text('node,label\n"a,b",M\nc,M\nd,F\n"""q",F\n"x""y",M\n')
    out = tmp_path / "p.csv"
    assert main(["propown", str(graph), str(labels), "--output", str(out)]) == 0
    assert out.read_text() == ('node,value\n"a,b",0.5\nc,0.3333333333333333\n'
                               'd,0.0\n"""q",0.0\n"x""y",0.0\n')
    assert main(["analyze", str(graph), str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 5


def test_rewire_experiment(tmp_path):
    graph = tmp_path / "g.edges"
    main(["gen", "gnp", "--n", "12", "--p", "0.4", "--seed", "3",
          "--output", str(graph)])
    out = tmp_path / "rewire.csv"
    rc = main(["rewire-experiment", str(graph), "--seed", "7",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("network_id,r_high_original")
    assert len(lines) == 2


@pytest.mark.parametrize("mode", [[], ["--rational"]])
def test_analyze_non_finite_attribute_exits_1(tmp_path, capsys, mode):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n")
    attrs = tmp_path / "a.csv"
    attrs.write_text("node,value\n1,5\n2,nan\n3,1\n")
    assert main(["analyze", str(graph), str(attrs), *mode]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")


@pytest.mark.parametrize("text, message", [
    ("", "error: line 1: missing header\n"),
    ("node,value\n1,5\n2,1,7\n3,1\n", "error: line 3: expected two columns\n"),
    ("node,value\n1,5,0\n", "error: line 2: expected two columns\n"),
])
def test_analyze_malformed_attribute_file_exits_1(tmp_path, capsys, text, message):
    graph, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
    graph.write_text("1 2\n2 3\n")
    attrs.write_text(text)
    assert main(["analyze", str(graph), str(attrs)]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command, column", [("analyze", "value"), ("propown", "label")])
def test_node_table_without_a_row_for_a_node_exits_1(tmp_path, capsys, command, column):
    graph, path = tmp_path / "path3.edges", tmp_path / "ab.csv"
    graph.write_text("a b\nb c\n")
    path.write_text(f"node,{column}\na,1\nb,2\n")
    assert main([command, str(graph), str(path)]) == 1
    assert capsys.readouterr().err == "error: no row for node 'c'\n"


def test_analyze_skips_blank_attribute_rows(tmp_path, capsys):
    graph, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
    graph.write_text("1 2\n2 3\n3 4\n")
    attrs.write_text("node,value\n1,1\n2,2\n3,3\n4,5\n")
    assert main(["analyze", str(graph), str(attrs)]) == 0
    want = capsys.readouterr().out
    attrs.write_text("node,value\n\n1,1\n2,2\n\n\n3,3\n4,5\n\n")
    assert main(["analyze", str(graph), str(attrs)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ["optimize", "{graph}", "--epsilon", "0"],
    ["census", "--nmin", "3", "--nmax", "3", "--samples", "4", "--epsilon", "0"],
    ["rewire-experiment", "{graph}", "--epsilon", "0"],
    ["rewire-experiment", "{triangle}", "--epsilon", "0"],
    ["census", "--nmin", "3", "--nmax", "3", "--samples", "0"],
    ["census", "--nmin", "2", "--nmax", "3", "--samples", "4"],
    ["gen", "gnp", "--n", "0"],
    ["gen", "gnp", "--p", "2"],
    ["census", "--samples", "abc"],
    ["grow", "-1"],
    ["grow"],
    ["no-such-command"],
    ["analyze", "{missing}", "{graph}"],
    ["gen", "fig1", "--output", "{nodir}/g.edges"],
    ["gen", "fig1", "--attrs-output", "{nodir}/a.csv"],
    ["classify", "{binary}"],
    ["gen", "fig4", "--sample", "7"],
    ["gen", "fig4", "--sample", "-1"],
    ["analyze", "{graph}", "{graph}", "--float"],
    ["census", "--nmin", "3", "--nmax", "3", "--samples", "4", "--jobs", "0"],
    ["census", "--nmin", "3", "--nmax", "3", "--samples", "4", "--jobs", "-1"],
    ["threshold", "{graph}", "--grid", "1"],
    ["threshold", "{graph}", "--grid", "0"],
    ["threshold", "{graph}", "--grid", "-5"],
    ["census", "--nmin", "5", "--nmax", "3"],
    ["optimize", "{graph}", "--epsilon", "inf"],
    ["census", "--nmin", "3", "--nmax", "3", "--samples", "4", "--epsilon", "inf"],
    ["rewire-experiment", "{graph}", "--epsilon", "inf"],
    [],
    ["gen", "star", "--n", "5", "--attrs-output", "{attrs_out}", "--output", "{graph_out}"],
    ["gen", "fig1", "--attrs-output", "{attrs_out}", "--output", "{nodir}/g.edges"],
    ["gen", "fig4", "--attrs-output", "{nodir}/a.csv", "--output", "{graph_out}"],
    ["gen", "star", "--p", "0.9"],
    ["gen", "fig1", "--n", "5"],
    ["gen", "gnp", "--sample", "1"],
    ["gen", "path", "--seed", "3"],
    ["grow", "1", "--output", ""],  # an empty path is a path, not an absent option
    ["gen", "fig4", "--output", ""],
    ["gen", "fig1", "--attrs-output", ""],
    ["gen", "fig1", "--output", "", "--attrs-output", "{attrs_out}"],
    ["gen", "fig1", "--output", "{graph_out}", "--attrs-output", "{graph_out}"],
])
def test_bad_arguments_exit_1(tmp_path, capsys, argv):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    triangle = tmp_path / "t.edges"
    triangle.write_text("1 2\n2 3\n3 1\n")
    binary = tmp_path / "b.edges"
    binary.write_bytes(b"1 2\n\xff 3\n")
    capsys.readouterr()
    paths = {"graph": graph, "triangle": triangle, "binary": binary,
             "missing": tmp_path / "missing.edges", "nodir": tmp_path / "no-such-dir",
             "graph_out": tmp_path / "out.edges", "attrs_out": tmp_path / "out.csv"}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not paths["graph_out"].exists()
    assert not paths["attrs_out"].exists()


HELP = {
    "analyze": "gap/correlation report for a graph + attributes",
    "classify": "exact pro-/anti-SGFP classification",
    "optimize": "LP search for a failing attribute sample",
    "threshold": "failing-correlation threshold estimate",
    "census": "random-graph pro/anti census",
    "grow": "growth-construction curve data",
    "rewire-experiment": "configuration-model rewiring study",
    "propown": "derive shared-label proportion attribute",
    "gen": "generate a named graph as an edge list",
}


@pytest.mark.parametrize("argv, message", [
    (["threshold", "G", "--grid", "abc"],
     "sgfp threshold: argument --grid: invalid int value: 'abc'"),
    (["gen", "fig4", "--sample", "7"],
     "sgfp gen: argument --sample: invalid choice: 7 (choose from 0, 1, 2)"),
    (["grow"], "sgfp grow: the following arguments are required: steps"),
    (["no-such-command"], "sgfp: argument command: invalid choice: 'no-such-command' "
                          f"(choose from {', '.join(map(repr, HELP))})"),
    ([], "sgfp: the following arguments are required: command"),
    (["census", "--foo"], "sgfp: unrecognized arguments: --foo"),
    (["gen", "star", "--n", "4", "--attrs-output", ""],
     "sgfp gen: argument --attrs-output: star has no attributes"),
    (["gen", "fig1", "--output", "/no-such-dir/g", "--attrs-output", "/no-such-dir/./g"],
     "sgfp gen: argument --attrs-output: the same file as --output"),
])
def test_usage_error_text(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_help_lists_commands_and_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: sgfp ")
    for name, text in HELP.items():
        assert f"    {name}" in out and text in out
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: sgfp census ")
    for option in ("--nmin", "--nmax", "--samples", "--seed", "--epsilon", "--jobs", "--output"):
        assert option in out


@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"], ["grow", "2"],
                                  ["no-such-command"], ["gen", "fig4", "--sample", "7"]])
def test_one_terminal_size_probe_per_call(monkeypatch, capsys, argv):
    probes, probe = [], shutil.get_terminal_size

    def counting(*args, **kwargs):
        probes.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    for calls in (1, 2):  # nothing is kept between calls: each probes once
        try:
            main(argv)
        except SystemExit:  # --help
            pass
        assert len(probes) == calls


class _Stop(SgfpError):
    pass


def _recorder(module, name, calls, result=None):
    """Replace module.name by a stub that records its bound arguments and
    returns `result`, or raises _Stop when `result` is None."""
    signature = inspect.signature(getattr(module, name))

    def stub(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        if result is None:
            raise _Stop("stopped")
        return result
    return stub


@pytest.mark.parametrize("argv, module, name, expected", [
    (["optimize", "{graph}"], "sgfp.cli", "max_failing_correlation", {"epsilon": 0.001}),
    (["rewire-experiment", "{graph}"], "sgfp.experiments", "rewire_experiment",
     {"seed": 0, "epsilon": 0.001}),
    (["gen", "gnp"], "sgfp.cli", "gnp", {"n": 8, "p": 0.5, "seed": 0}),
])
def test_subcommand_defaults(tmp_path, capsys, monkeypatch, argv, module, name, expected):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    calls = []
    target = importlib.import_module(module)
    monkeypatch.setattr(target, name, _recorder(target, name, calls))
    assert main([a.format(graph=graph) for a in argv]) == 1
    assert len(calls) == 1
    for key, value in expected.items():
        assert calls[0][key] == value and type(calls[0][key]) is type(value)


def test_census_defaults(monkeypatch, capsys):
    experiments = importlib.import_module("sgfp.experiments")
    record = experiments.CensusRecord(3, 1, 1, 1.0, None, None, None, None, 0)
    calls = []
    monkeypatch.setattr(experiments, "census",
                        _recorder(experiments, "census", calls, (record, 0)))
    assert main(["census"]) == 0
    assert [c["n"] for c in calls] == list(range(3, 11))
    for call in calls:
        assert {k: call[k] for k in ("samples", "seed", "epsilon", "jobs")} == {
            "samples": 10000, "seed": 0, "epsilon": 0.001, "jobs": 1}
        assert type(call["epsilon"]) is float


def test_gen_sample_defaults_to_0(tmp_path, capsys):
    default, first = tmp_path / "d.csv", tmp_path / "f.csv"
    assert main(["gen", "fig4", "--attrs-output", str(default)]) == 0
    assert main(["gen", "fig4", "--sample", "0", "--attrs-output", str(first)]) == 0
    assert default.read_bytes() == first.read_bytes()


def test_module_entry_point(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    main(["gen", "path", "--n", "5", "--output", str(graph)])
    capsys.readouterr()
    assert main(["threshold", str(graph)]) == 0
    expected = capsys.readouterr().out.encode()
    env = dict(os.environ, PYTHONPATH=str(Path(sgfp.__file__).parents[1]))
    run = [sys.executable, "-m", "sgfp.cli"]
    proc = subprocess.run([*run, "threshold", str(graph)], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")
    proc = subprocess.run(run, capture_output=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ")


def _parsers_given_arguments(monkeypatch):
    """Record the prog of every parser that is given an argument, -h included."""
    progs, add_argument = [], argparse.ArgumentParser.add_argument

    def recording(self, *args, **kwargs):
        if self.prog not in progs:
            progs.append(self.prog)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    return progs


def _parsers_added(monkeypatch):
    """Record the name of every subparser that is registered."""
    names, add_parser = [], argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    return names


# The argument lists of the benchmark's operations (perfbench/workloads.py).
BENCHMARK_ARGV = pytest.mark.parametrize("argv", [
    ["census", "--nmin", "3", "--nmax", "7", "--samples", "8", "--seed", "0", "--jobs", "1"],
    ["threshold", "--grid", "64", "{graph}"],
    ["rewire-experiment", "{graph}", "{graph}", "--seed", "204"],
    ["analyze", "{graph}", "{attrs}", "--rational"],
    ["classify", "{graph}"],
    ["optimize", "{graph}", "--witness"],
    ["grow", "20"],
])


@BENCHMARK_ARGV
def test_only_the_named_command_gets_arguments(fig1_files, monkeypatch, capsys, argv):
    graph, attrs = fig1_files
    progs = _parsers_given_arguments(monkeypatch)
    assert main([a.format(graph=graph, attrs=attrs) for a in argv]) == 0
    assert progs == ["sgfp", f"sgfp {argv[0]}"]


@BENCHMARK_ARGV
def test_only_the_named_command_gets_a_parser(fig1_files, monkeypatch, capsys, argv):
    graph, attrs = fig1_files
    names = _parsers_added(monkeypatch)
    assert main([a.format(graph=graph, attrs=attrs) for a in argv]) == 0
    assert names == [argv[0]]


@pytest.mark.parametrize("argv", [["--help"], [], ["nosuch"], ["-h", "census"]])
def test_no_named_command_registers_every_parser(monkeypatch, capsys, argv):
    names = _parsers_added(monkeypatch)
    try:
        main(argv)
    except SystemExit:  # --help
        pass
    assert names == list(COMMANDS)


@pytest.mark.parametrize("argv", [["--help"], [], ["nosuch"], ["-h", "census"]])
def test_no_named_command_gives_every_command_its_arguments(monkeypatch, capsys, argv):
    progs = _parsers_given_arguments(monkeypatch)
    try:
        main(argv)
    except SystemExit:  # --help
        pass
    assert progs == ["sgfp", *(f"sgfp {name}" for name in COMMANDS)]


def test_console_script_path_gives_one_command_arguments(monkeypatch, capsys):
    assert main(["grow", "3"]) == 0
    expected = capsys.readouterr()
    progs = _parsers_given_arguments(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["sgfp", "grow", "3"])
    assert main() == 0
    assert progs == ["sgfp", "sgfp grow"]
    assert capsys.readouterr() == expected
    env = dict(os.environ, PYTHONPATH=str(Path(sgfp.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sgfp.cli", "grow", "3"], capture_output=True,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.out.encode(), b"")


@pytest.mark.parametrize("argv", [
    ["gen", "gnp", "--n", "20", "--p", "0.1", "--seed", "1"],  # 3 isolated nodes
    ["gen", "gnp", "--n", "3", "--p", "0"],
])
def test_gen_refuses_isolated_nodes(tmp_path, capsys, argv):
    out = tmp_path / "g.edges"
    assert main([*argv, "--output", str(out)]) == 1
    assert "3 isolated node(s)" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_census_reports_infeasible_samples(tmp_path, capsys):
    argv = ["census", "--nmin", "4", "--nmax", "5", "--samples", "50", "--epsilon", "0.9"]
    out = tmp_path / "c.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: n=5: 5 of 50 samples infeasible at epsilon=0.9\n")
    assert main(argv) == 0
    # The warning goes to stderr only: stdout holds the same CSV bytes as the file.
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_analyze_rational_is_exact(tmp_path, capsys):
    # The two values round to the same float; only exact parsing sees them
    # differ, giving gap -1/3 and r_da = -1 instead of 0 and "undefined".
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n")
    attrs = tmp_path / "a.csv"
    attrs.write_text("node,value\n1,12345678901234567891\n"
                     "2,12345678901234567890\n3,12345678901234567891\n")
    assert main(["analyze", str(graph), str(attrs), "--rational"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["singular_gap"] == -1 / 3
    assert report["r_da"] == -1.0


def test_analyze_rational_integers_match_fractions(tmp_path, capsys):
    # "7" parses as the int 7 and "7.0" as Fraction(7): the same report.
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n3 4\n2 4\n")
    outputs = []
    for values in (["3", "-2", "+7", "0"], ["3.0", "-2.0", "7.0", "0e1"]):
        attrs = tmp_path / "a.csv"
        attrs.write_text("node,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values, 1)))
        assert main(["analyze", str(graph), str(attrs), "--rational", "--per-node"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


FIG1_LABELS = "node,label\nA,x\nB,x\nC,y\nD,y\nE,y\nF,NA\nG,z\nH,z\n"


def test_output_bytes_golden(fig1_files, tmp_path):
    # The census, grow and rewire-experiment tables end lines in \r\n; edge
    # lists, node tables and JSON lines end them in \n.
    graph, attrs = fig1_files
    labels = tmp_path / "l.csv"
    labels.write_text(FIG1_LABELS)
    out = {name: tmp_path / name for name in ("grow.csv", "p.csv", "c.json")}
    assert main(["grow", "2", "--output", str(out["grow.csv"])]) == 0
    assert main(["propown", str(graph), str(labels), "--output", str(out["p.csv"])]) == 0
    assert main(["classify", str(graph), "--output", str(out["c.json"])]) == 0
    assert graph.read_bytes() == b"A B\nA C\nB D\nC D\nC E\nD F\nE F\nE G\nF H\n"
    assert attrs.read_bytes() == b"node,value\nA,2\nB,2\nC,3\nD,3\nE,3\nF,3\nG,10\nH,10\n"
    assert out["grow.csv"].read_bytes() == (
        b"k,n,gap,r\r\n0,8,-1.125,-0.8004987358916189\r\n"
        b"1,12,-0.75,-0.6936416870658706\r\n2,16,-0.5625,-0.6106580268910347\r\n")
    assert out["p.csv"].read_bytes() == (
        b"node,value\nA,0.5\nB,0.5\nC,0.6666666666666666\nD,0.3333333333333333\n"
        b"E,0.3333333333333333\nF,0.0\nG,0.0\nH,0.0\n")
    assert out["c.json"].read_bytes() == (
        b'{"kind": "AntiSGFP", "x": null, "z": null, "r_ddelta": 0.9307578419910344, '
        b'"reason": "reciprocal-degree sums are not an affine function of degree"}\n')

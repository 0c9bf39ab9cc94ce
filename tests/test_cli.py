import json

import pytest

from sgfp.cli import main


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
             "missing": tmp_path / "missing.edges", "nodir": tmp_path / "no-such-dir"}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


FIG1_LABELS = "node,label\nA,x\nB,x\nC,y\nD,y\nE,y\nF,NA\nG,z\nH,z\n"


def test_output_bytes_golden(fig1_files, tmp_path):
    # CSV tables from the csv module end lines in \r\n; edge lists, node
    # tables and JSON lines end them in \n.
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

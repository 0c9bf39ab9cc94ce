"""Smoke test of the benchmark harness at tiny sizes; no timing gates.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.fixture(scope="module")
def tiny():
    """First-pass outputs of every tiny workload, run in-process."""
    import sgfp.cli as cli

    workdir = run.OUT / "smoke-inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    try:
        for name in WORKLOADS:
            (workdir / name).mkdir(parents=True)
            wl = workloads.MAKE_WORKLOAD[name](0, "tiny", workdir / name)
            out[name] = (wl, [run.run_op(cli, op.argv)[1:] for op in wl.ops])
        yield out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _status(op, result):
    rc, out, err = result
    return op.check(out, err, rc)[0]


def _corrupt_census(out):
    lines = out.splitlines()
    fields = lines[2].split(",")
    fields[3] = "1.5"  # pro_proportion of n = 4
    lines[2] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _corrupt_threshold(out):
    res = json.loads(out)
    res["oracle_max"] = res["candidate_sup"] + 0.01
    return json.dumps(res)


def _corrupt_witness(out):
    res = json.loads(out)
    res["witness"] = [v + 0.01 for v in res["witness"]]
    return json.dumps(res)


def _corrupt_growth(out):
    lines = out.splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-9))
    lines[-1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload,index,corrupt", [
    ("census", 0, _corrupt_census),
    ("threshold", 0, _corrupt_threshold),
    ("network", 3, _corrupt_witness),
    ("growth", 1, _corrupt_growth),
])
def test_corrupted_output_is_caught(tiny, workload, index, corrupt):
    wl, results = tiny[workload]
    op = wl.ops[index]
    rc, out, err = results[index]
    assert _status(op, (rc, out, err)) == workloads.OK
    assert _status(op, (rc, corrupt(out), err)) == workloads.FAILED
    assert _status(op, (1, "", "error: boom\n")) == workloads.FAILED


def test_lp_cap_refusal_is_counted_apart_from_failures(tiny):
    wl, results = tiny["network"]
    statuses = [_status(op, r) for op, r in zip(wl.ops, results)]
    capped = [op.argv[0] for op, s in zip(wl.ops, statuses) if s == workloads.REFUSED]
    assert workloads.FAILED not in statuses
    assert capped in ([], ["optimize", "rewire-experiment"])


def test_recorded_refusal_leaves_only_the_invariant_check(tiny):
    wl, results = tiny["network"]
    _, _, _, exact = run.check_outputs(wl.ops, [results], None)
    # Ops 3 and 4 (optimize, rewire-experiment on the 60-node graph)
    # succeed; record them as refused, as on a graph above the LP cap.
    recorded = list(exact)
    recorded[3] = recorded[4] = workloads.REFUSED
    statuses, counts, problems, _ = run.check_outputs(wl.ops, [results], recorded)
    assert statuses[3] == statuses[4] == workloads.OK and not problems
    rc, out, err = results[3]
    corrupted = list(results)
    corrupted[3] = (rc, _corrupt_witness(out), err)
    statuses, counts, problems, _ = run.check_outputs(wl.ops, [corrupted], recorded)
    assert statuses[3] == workloads.FAILED and counts[workloads.FAILED] == 1


def test_changed_exact_value_and_nondeterminism_are_caught(tiny):
    wl, results = tiny["census"]
    _, _, _, exact = run.check_outputs(wl.ops, [results], None)
    wrong = [list(exact[0]), exact[1]]
    wrong[0][1] += 1
    _, counts, problems, _ = run.check_outputs(wl.ops, [results], wrong)
    assert counts[workloads.FAILED] == 1 and "recorded" in problems[0]
    changed = [results[0], (results[1][0], results[1][1] + " ", results[1][2])]
    _, counts, problems, _ = run.check_outputs(wl.ops, [results, changed], None)
    assert counts[workloads.FAILED] == 1 and "differs" in problems[0]


def test_tracer_wraps_every_binding_and_tolerates_missing_functions():
    from sgfp.construct import path

    # The package re-exports `classify`, which hides the submodule attribute.
    graph, metrics, classify = (sys.modules[f"sgfp.{m}"]
                                for m in ("graph", "metrics", "classify"))
    original = graph.delta
    tracer = Tracer(["graph.delta", "metrics.r_d_delta", "lp.no_such_function"])
    tracer.install()
    try:
        assert metrics.delta is classify.delta is graph.delta is not original
        classify.classify(path(5))
    finally:
        tracer.uninstall()
    assert graph.delta is original and metrics.delta is original
    totals = tracer.totals()
    assert totals["lp.no_such_function"] == (0, 0.0)
    # classify calls delta once itself and once through r_d_delta.
    assert totals["graph.delta"][0] == 2 and totals["metrics.r_d_delta"][0] == 1
    rdd = next(i for i, s in enumerate(tracer.spans) if s[0] == "metrics.r_d_delta")
    assert any(s[0] == "graph.delta" and s[3] == rdd for s in tracer.spans)

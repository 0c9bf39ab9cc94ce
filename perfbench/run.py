"""sgfp benchmark: drives ``sgfp.cli.main(argv)`` in-process, one call after
another (a closed loop with one client), on inputs made from ``--seed``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats a fixed pass over the workload's operations until
``--seconds`` have gone. Times are rescaled to a reference host speed by a
short probe timed around every call (see ``reference_probe``). With ``--trace 0`` it prints every end-to-end
metric named in BENCHMARK.json; with ``--trace 1`` the first half of the
window runs untraced and the second half traced, and it prints every
per-layer metric. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record with provenance and raw samples goes to ``perfbench/out/``. The exit
code is 1 if an output check failed and 2 if the run could not start.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # before and again after the timed phase
REFERENCE_S = 0.002  # reference_probe() time at the reference host speed
# Setup is rescaled by a reference import: a fresh process that imports
# numpy and the standard-library modules that importing sgfp pulls in, but
# no sgfp code. Its cost is the same on every commit, and it slows down with
# the host's import path (file system, unmarshalling, shared-library
# loading) far more like sgfp's import than a compute probe does.
REFERENCE_IMPORTS = ("numpy, argparse, csv, json, fractions, decimal, "
                     "multiprocessing, concurrent.futures.process")
REFERENCE_IMPORT_S = 0.18  # the reference import's time at the reference host speed
TIMED_IMPORT = """
import time
t = time.perf_counter()
import {}
print(time.perf_counter() - t)
"""

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [None] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(values):
    q1, q2, q3 = quartiles(values)
    return {"count": len(values), "median": q2, "q1": q1, "q3": q3,
            "samples": values}


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def probe_setup() -> list[float]:
    """Import time of sgfp and sgfp.cli, each in a fresh process, rescaled
    by the mean of the reference imports run just before and just after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def timed_import(modules):
        proc = subprocess.run([sys.executable, "-c", TIMED_IMPORT.format(modules)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return float(proc.stdout.split()[-1])

    times = []
    before = timed_import(REFERENCE_IMPORTS)
    for _ in range(SETUP_PROBES):
        seconds = timed_import("sgfp, sgfp.cli")
        after = timed_import(REFERENCE_IMPORTS)
        times.append(seconds * 2 * REFERENCE_IMPORT_S / (before + after))
        before = after
    return times


def run_op(cli, argv):
    """One CLI call: (seconds, exit code or None on a traceback, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the harness must keep going and report the op
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def reference_probe() -> float:
    """Seconds for a fixed bit of pure-Python work that does not use sgfp.

    A shared host can change speed by up to 2x in spells of seconds, longer
    than a run. Each call's latency is rescaled by this probe,
    timed just before and just after the call, to the host speed at which
    the probe takes REFERENCE_S. The probe mixes integer arithmetic,
    Fractions, dict/tuple churn and a graph traversal, like sgfp's own code.
    """
    start = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
        table[(i, i * 7)] = [i, (i, str(i))]
    sorted(table.items(), key=lambda kv: -kv[0][1])
    adj = [[(j * 5 + i) % 60 for j in range(4)] for i in range(60)]
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return time.perf_counter() - start


def run_passes(cli, ops, window, tracer=None):
    """Repeat the pass until about `window` seconds have gone (at least once).

    Returns per-pass times and per-call latencies, each rescaled to the
    reference host speed, the raw per-call latencies, and per-pass outputs.
    """
    walls, latencies, raw, outputs = [], [], [], []
    start = time.perf_counter()
    before = reference_probe()
    while True:
        results, pass_time = [], 0.0
        for op in ops:
            if tracer is not None:
                tracer.call += 1
            dt, rc, out, err = run_op(cli, op.argv)
            after = reference_probe()
            scaled = dt * 2 * REFERENCE_S / (before + after)
            before = after
            if tracer is not None:
                tracer.scales.append(scaled / dt)
            raw.append(dt)
            latencies.append(scaled)
            pass_time += scaled
            results.append((rc, out, err))
        walls.append(pass_time)
        outputs.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed / len(walls)) / 2 >= window:
            return walls, latencies, raw, outputs


def check_outputs(ops, passes, expected):
    """Check the first pass's outputs; later passes must repeat them exactly.

    Returns (statuses per op of the first pass, per-run status counts,
    failure messages, exact values).
    """
    first = passes[0]
    statuses, exact, problems = [], [], []
    for k, (op, (rc, out, err)) in enumerate(zip(ops, first)):
        if rc is None:
            status, detail = workloads.FAILED, "traceback: " + err.strip()[-500:]
        else:
            status, detail = op.check(out, err, rc)
        if status == workloads.OK:
            exact.append(detail)
            # An op recorded as refused has no exact value: once it succeeds,
            # only its invariant check applies.
            if (expected is not None and expected[k] != workloads.REFUSED
                    and detail != expected[k]):
                status, detail = workloads.FAILED, (
                    f"exact value {detail!r} != recorded {expected[k]!r}")
        else:
            exact.append(workloads.REFUSED if status == workloads.REFUSED else None)
        statuses.append(status)
        if status == workloads.FAILED:
            problems.append(f"op {k} {op.argv[0]}: {detail}")
    counts = {workloads.OK: 0, workloads.REFUSED: 0, workloads.FAILED: 0}
    for results in passes:
        for k, result in enumerate(results):
            if result != first[k]:
                counts[workloads.FAILED] += 1
                problems.append(f"op {k} {ops[k].argv[0]}: output differs between passes")
            else:
                counts[statuses[k]] += 1
    return statuses, counts, problems, exact


def git_provenance():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git repository"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": repr(exc)}
    return {"sha": sha or None, "dirty": bool(dirty.strip())}


def layer_metrics(names, tracer, n_passes, items_per_pass, overhead, fail_ratio):
    totals = tracer.totals()
    counters = tracer.counters

    def per_pass(target, stat):
        calls, self_s = totals.get(target, (0, 0.0))
        return (calls if stat == "calls" else self_s) / n_passes

    gnp_calls = per_pass("randgen.gnp", "calls")
    derived = {
        "randgen.accept_ratio": (per_pass("randgen.sample_connected_nonregular", "calls")
                                 / gnp_calls if gnp_calls else 0.0),
        "graph.delta.calls_per_item": per_pass("graph.delta", "calls") / items_per_pass,
        "lp.solve.iterations": counters["lp.solve.iterations"] / n_passes,
        "lp.solve.infeasible": counters["lp.solve.infeasible"] / n_passes,
        "lp.solves_per_item": per_pass("lp.solve", "calls") / items_per_pass,
        "trace.overhead_s": overhead,
        "fail_ratio": fail_ratio,
    }
    out = {}
    for name in names:
        target, _, stat = name.rpartition(".")
        out[name] = derived[name] if name in derived else per_pass(target, stat)
    return out


def traced_targets(per_layer):
    targets = []
    for m in per_layer:
        target, _, stat = m["name"].rpartition(".")
        if stat in ("calls", "self_s") and target not in targets:
            targets.append(target)
    return targets


def run_workload(args, spec) -> int:
    load_at_start = os.getloadavg()
    # Probes on both sides of the timed phase, so that one slow spell of a
    # shared host does not decide the median.
    setup = probe_setup()

    sys.path.insert(0, str(SRC))
    import sgfp
    import sgfp.cli as cli
    if not Path(sgfp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"sgfp imported from {sgfp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.MAKE_WORKLOAD[args.workload](args.seed, args.scale, workdir)
        items_per_pass = sum(op.items for op in wl.ops)
        warm = run_op(cli, wl.ops[0].argv)

        tracer = None
        window = args.seconds / 2 if args.trace else args.seconds
        walls, latencies, raw_latencies, passes = run_passes(cli, wl.ops, window)
        traced_walls = []
        if args.trace:
            tracer = Tracer(traced_targets(spec["per_layer"]))
            tracer.install()
            try:
                traced_walls, _, _, traced_passes = run_passes(cli, wl.ops, window, tracer)
            finally:
                tracer.uninstall()
            passes = passes + traced_passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += probe_setup()

    recorded = json.loads((HERE / "expected.json").read_text())
    rec = recorded.get(args.workload) if (args.seed, args.scale) == (0, "full") else None
    expected = rec["exact"] if rec and len(rec["exact"]) == len(wl.ops) else None
    statuses, counts, problems, exact = check_outputs(wl.ops, passes, expected)
    if rec and expected is None:
        counts[workloads.FAILED] += 1
        problems.append("expected.json records a different list of ops")
    if (warm[1], warm[2], warm[3]) != passes[0][0]:
        counts[workloads.FAILED] += 1
        problems.append("warm-up output differs from the first pass")
    if rec and rec["inputs_sha256"] != wl.digest:
        counts[workloads.FAILED] += 1
        problems.append(f"inputs digest {wl.digest} != recorded {rec['inputs_sha256']}"
                        " (did randgen's bitstream change?)")
    attempted = sum(len(p) for p in passes)
    failed = counts[workloads.FAILED]
    correct = failed == 0

    # A pass at each call's median latency: steadier than the median pass
    # when a run has only two or three passes. Its calls also give the
    # 95th percentile, which over all calls would hang on the few slowest
    # samples of a run.
    op_medians = [statistics.median(latencies[k::len(wl.ops)])
                  for k in range(len(wl.ops))]
    wall_s = sum(op_medians)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "items_per_s": items_per_pass / wall_s,
        "call_p50_ms": 1000 * statistics.median(latencies),
        "call_p95_ms": 1000 * percentile(op_medians, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        fail_ratio = (failed + counts[workloads.REFUSED]) / attempted
        values = layer_metrics([m["name"] for m in spec["per_layer"]], tracer,
                               len(traced_walls), items_per_pass, overhead, fail_ratio)
        listed = spec["per_layer"]
    else:
        values = end_to_end
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "refused": counts[workloads.REFUSED],
        "problems": problems[:50], "metrics": metrics,
        "provenance": {
            "git": git_provenance(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_at_start": load_at_start,
            "seed": args.seed, "derived_seeds": wl.seeds,
            "inputs_sha256": wl.digest,
        },
        "ops_per_pass": len(wl.ops), "items_per_pass": items_per_pass,
        "op_statuses": statuses, "exact": exact,
        "raw": {"setup_s": summary(setup), "pass_wall_s": summary(walls),
                "call_s": summary(latencies),
                "call_s_unscaled": summary(raw_latencies),
                "traced_pass_wall_s": summary(traced_walls)},
        "end_to_end_untraced": end_to_end,
    }
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:10s} attempted {attempted}, failed {failed}, "
          f"refused {counts[workloads.REFUSED]}; record in perfbench/out/result-{stem}.json")
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        if proc.returncode != 0 or not result["correct"]:
            print(f"{w['name']}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: smoke-test input sizes")
    args = parser.parse_args(argv)

    if not (SRC / "sgfp" / "__init__.py").is_file():
        print(f"no sgfp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

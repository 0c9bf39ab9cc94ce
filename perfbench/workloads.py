"""Workload inputs, CLI operations and output checks for the sgfp benchmark.

Every input is made from the ``--seed`` argument before the timed phase;
the program only sees the files and argument lists built here. Seed 0
reproduces the acceptance-test streams (census seed 0, criterion 6 base
seed 202, criterion 9 base seed 204).

A check returns ``(status, detail)``: status ``"ok"`` with an exact value
that must not move under any correct optimisation (pro counts, kinds),
``"refused"`` with the message of a documented refusal (the LP's
2000-variable cap), or ``"failed"`` with what was wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OK, REFUSED, FAILED = "ok", "refused", "failed"
LP_CAP = 2000
CAP_MESSAGE = f"error: problem exceeds {LP_CAP}-variable cap\n"

# Input sizes per scale; "tiny" is the harness smoke test.
SIZES = {
    "full": {"census_calls": 24, "census_samples": 8,
             "threshold_anti_per_n": 8, "threshold_pro": 4,
             "crit9_graphs": 50, "heavy_n": (1000, 1000, 1000, 2500),
             "grow_steps": (20, 40, 60, 80, 100)},
    "tiny": {"census_calls": 2, "census_samples": 2,
             "threshold_anti_per_n": 1, "threshold_pro": 1,
             "crit9_graphs": 5, "heavy_n": (60, 2001),
             "grow_steps": (5, 10)},
}

Check = Callable[[str, str, int], tuple[str, object]]


@dataclass
class Op:
    argv: list[str]
    items: int
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    seeds: dict
    digest: str


# --- graph statistics computed independently of sgfp, in floats ---------

class GraphStats:
    """Degrees and reciprocal-degree sums in sgfp's canonical node order
    (order of first appearance in the edge list)."""

    def __init__(self, edges):
        index: dict[str, int] = {}
        adj: list[set[int]] = []
        for u, v in edges:
            for lab in (u, v):
                if lab not in index:
                    index[lab] = len(adj)
                    adj.append(set())
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        self.labels = list(index)
        self.n = len(adj)
        self.m = sum(len(a) for a in adj) // 2
        self.deg = [len(a) for a in adj]
        self.delta = [sum(1.0 / self.deg[k] for k in a) for a in adj]
        self.r_ddelta = pearson(self.deg, self.delta)


def pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _close(a, b, tol=1e-9):
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _write_edges(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")


def _sgfp_edges(g):
    return [(str(g.labels[i]), str(g.labels[j])) for i, j in g.edges()]


def _csv_rows(out, header):
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        raise ValueError(f"bad CSV header {rows[:1]}")
    return rows[1:]


def _opt(field):
    return None if field == "" else float(field)


def _guard(check: Check) -> Check:
    """Turn a parse error in a check into a failed op."""
    def guarded(out, err, rc):
        if rc != 0:
            return FAILED, f"exit {rc}: {err.strip()[-300:]}"
        try:
            return check(out, err, rc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return FAILED, f"unparseable output: {exc!r}"
    return guarded


# --- census --------------------------------------------------------------

CENSUS_HEADER = ["n", "samples", "pro_count", "pro_proportion",
                 "mean_r_high_pro", "mean_r_high_anti",
                 "mean_r_ddelta_pro", "mean_r_ddelta_anti", "base_seed"]


def census_check(samples: int, call_seed: int) -> Check:
    def check(out, err, rc):
        rows = _csv_rows(out, CENSUS_HEADER)
        if [int(r[0]) for r in rows] != list(range(3, 8)):
            return FAILED, "census rows are not n = 3..7"
        counts = []
        for r in rows:
            n, s, pro = int(r[0]), int(r[1]), int(r[2])
            prop = float(r[3])
            rh_pro, rh_anti, rdd_pro, rdd_anti = map(_opt, r[4:8])
            if s != samples or int(r[8]) != call_seed:
                return FAILED, f"n={n}: samples/base_seed echo wrong"
            if not (0 <= pro <= s and 0.0 <= prop <= 1.0 and prop == pro / s):
                return FAILED, f"n={n}: proportion {prop} out of range"
            if n == 3 and pro != s:
                return FAILED, "every connected non-regular 3-node graph is pro"
            if pro and rdd_pro != 1.0:
                return FAILED, f"n={n}: mean_r_ddelta_pro {rdd_pro} != 1.0"
            if pro < s and not (rdd_anti is not None and 0.0 < rdd_anti <= 1.0):
                return FAILED, f"n={n}: mean_r_ddelta_anti {rdd_anti} outside (0, 1]"
            if rh_pro is not None and rh_pro > 0:
                return FAILED, f"n={n}: pro graphs gave r_high {rh_pro} > 0"
            if pro < s and not (rh_anti is not None and rh_anti > 0):
                return FAILED, f"n={n}: anti graphs gave r_high {rh_anti} <= 0"
            counts.append(pro)
        return OK, counts
    return _guard(check)


def build_census(seed: int, scale: str, workdir: Path) -> Workload:
    size = SIZES[scale]
    samples = size["census_samples"]
    ops = []
    for j in range(size["census_calls"]):
        call_seed = seed * 1000 + j
        argv = ["census", "--nmin", "3", "--nmax", "7", "--samples", str(samples),
                "--seed", str(call_seed), "--jobs", "1"]
        ops.append(Op(argv, 5 * samples, census_check(samples, call_seed)))
    seeds = {"census_call_seeds": [seed * 1000, seed * 1000 + len(ops) - 1]}
    return Workload(ops, seeds, _digest(ops, workdir))


# --- threshold -----------------------------------------------------------

def threshold_check(stats: GraphStats) -> Check:
    def check(out, err, rc):
        res = json.loads(out)
        cand, oracle = float(res["candidate_sup"]), float(res["oracle_max"])
        if not oracle <= cand + 1e-6:
            return FAILED, f"oracle_max {oracle} above candidate_sup {cand}"
        if not cand - oracle <= 0.05:
            return FAILED, f"oracle_max {oracle} more than 0.05 below {cand}"
        if cand == 0.0:
            # Pro graphs: delta is affine in d with positive slope.
            if not _close(stats.r_ddelta, 1.0):
                return FAILED, f"candidate 0 but r_ddelta {stats.r_ddelta} != 1"
            return OK, "P"
        expected = math.sqrt(max(0.0, 1.0 - stats.r_ddelta ** 2))
        if not _close(cand, expected):
            return FAILED, f"candidate_sup {cand} != sqrt(1 - r^2) = {expected}"
        return OK, "A"
    return _guard(check)


def build_threshold(seed: int, scale: str, workdir: Path) -> Workload:
    """The first anti graphs of each size n = 4..10 in the criterion-6
    stream, and its first few pro graphs.

    Criterion 6 validates the threshold on anti graphs; a pro graph's
    candidate is 0 and costs a tenth as much. A fixed quota per size and
    kind keeps the cost of one seed's graph set close to any other seed's;
    the stream itself is unchanged.
    """
    from sgfp.randgen import mix, sample_connected_nonregular

    base = 202 + seed
    size = SIZES[scale]
    anti = {n: size["threshold_anti_per_n"] for n in range(4, 11)}
    pro = size["threshold_pro"]
    ops = []
    i = 0
    while pro or any(anti.values()):
        n = 4 + mix(base, 10_000 + i) % 7
        g = sample_connected_nonregular(n, 0.5, mix(base, i))
        edges = _sgfp_edges(g)
        stats = GraphStats(edges)
        is_pro = _close(stats.r_ddelta, 1.0)
        if (pro if is_pro else anti[n]):
            path = workdir / f"threshold_{i:04d}.edges"
            _write_edges(path, edges)
            ops.append(Op(["threshold", "--grid", "64", str(path)], 1,
                          threshold_check(stats)))
            if is_pro:
                pro -= 1
            else:
                anti[n] -= 1
        i += 1
    return Workload(ops, {"threshold_base_seed": base}, _digest(ops, workdir))


# --- network -------------------------------------------------------------

REWIRE_HEADER = ["network_id", "r_high_original", "r_ddelta_original",
                 "r_high_rewired", "r_ddelta_rewired", "seed"]


def rewire_check(paths: list[str], stats: list[GraphStats]) -> Check:
    def check(out, err, rc):
        rows = _csv_rows(out, REWIRE_HEADER)
        if [r[0] for r in rows] != paths:
            return FAILED, "rewire rows do not match the input graphs"
        pattern = []
        for r, st in zip(rows, stats):
            rh0, rdd0, rh1, rdd1 = map(_opt, r[1:5])
            if not _close(rdd0, st.r_ddelta):
                return FAILED, f"{r[0]}: r_ddelta_original {rdd0} != {st.r_ddelta}"
            for value in (rh0, rh1, rdd1):
                if value is not None and not -1.0 - 1e-9 <= value <= 1.0 + 1e-9:
                    return FAILED, f"{r[0]}: correlation {value} outside [-1, 1]"
            pattern.append(f"{int(rh0 is not None)}{int(rh1 is not None)}")
        return OK, "".join(pattern)
    return _guard(check)


def analyze_check(stats: GraphStats, attrs: list[int]) -> Check:
    def check(out, err, rc):
        res = json.loads(out)
        n, deg, dl = stats.n, stats.deg, stats.delta
        gap = sum((d - 1.0) * a for d, a in zip(dl, attrs)) / n
        lgap = sum(d * a for d, a in zip(deg, attrs)) / sum(deg) - sum(attrs) / n
        if (res["n"], res["m"], res["excluded_isolates"]) != (n, stats.m, 0):
            return FAILED, "analyze: n, m or isolate count wrong"
        for key, want in (("singular_gap", gap), ("list_gap", lgap),
                          ("r_da", pearson(deg, attrs)),
                          ("r_ddelta", stats.r_ddelta)):
            if not _close(res[key], want):
                return FAILED, f"analyze: {key} {res[key]} != {want}"
        return OK, None
    return _guard(check)


def classify_check(stats: GraphStats) -> Check:
    def check(out, err, rc):
        res = json.loads(out)
        kind = res["kind"]
        if kind not in ("ProSGFP", "AntiSGFP"):
            return FAILED, f"classify: connected non-regular graph is {kind}"
        if kind == "ProSGFP" and not _close(stats.r_ddelta, 1.0):
            return FAILED, "classify: pro graph with r_ddelta != 1"
        if not _close(res["r_ddelta"], stats.r_ddelta):
            return FAILED, f"classify: r_ddelta {res['r_ddelta']} != {stats.r_ddelta}"
        return OK, kind
    return _guard(check)


def optimize_check(stats: GraphStats, epsilon: float = 0.001) -> Check:
    def check(out, err, rc):
        res = json.loads(out)
        a = [float(v) for v in res["witness"]]
        n = stats.n
        if len(a) != n or any(abs(v) > 1.0 + 1e-9 for v in a):
            return FAILED, "optimize: witness length or box bound wrong"
        if abs(sum(a)) / n > 1e-9:
            return FAILED, f"optimize: witness mean {sum(a) / n} != 0"
        gap = sum(d * v for d, v in zip(stats.delta, a)) / n
        if not (gap < 0 and gap <= -epsilon / n + 1e-9 and _close(gap, res["gap"])):
            return FAILED, f"optimize: witness gap {gap} (reported {res['gap']})"
        if not _close(res["r_high"], pearson(stats.deg, a)):
            return FAILED, "optimize: r_high is not corr(d, witness)"
        return OK, None
    return _guard(check)


def _lp_capped(check: Check, n: int) -> Check:
    """Above the LP cap the documented refusal is an accepted outcome."""
    def capped(out, err, rc):
        if n > LP_CAP and rc == 1 and err == CAP_MESSAGE:
            return REFUSED, err.strip()
        return check(out, err, rc)
    return capped


def heavy_tailed_edges(n: int, rng: random.Random, m: int = 2):
    """Preferential attachment: sparse, connected, heavy-tailed degrees."""
    edges, ends = [], []
    for v in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.choice(ends) if ends else rng.randrange(v))
        for u in sorted(chosen):
            edges.append((str(v), str(u)))
            ends += [u, v]
    return edges


def build_network(seed: int, scale: str, workdir: Path) -> Workload:
    """(a) the criterion-9 rewiring study; (b) four ops on large graphs."""
    from sgfp.randgen import gnp, mix

    size = SIZES[scale]
    base = 204 + seed
    paths, stats = [], []
    i = 0
    while len(paths) < size["crit9_graphs"]:
        n = 12 + mix(base, 10_000 + i) % 29
        p = 0.15 + (mix(base, 20_000 + i) % 1000) / 1000 * 0.45
        edges = _sgfp_edges(gnp(n, p, mix(base, i)))
        st = GraphStats(edges)
        if st.n >= 3 and len(set(st.deg)) > 1:  # isolates never reach the file
            path = workdir / f"crit9_{i:04d}.edges"
            _write_edges(path, edges)
            paths.append(str(path))
            stats.append(st)
        i += 1
    ops = [Op(["rewire-experiment", *paths, "--seed", str(base)], len(paths),
              rewire_check(paths, stats))]

    rng = random.Random(base)
    for k, n in enumerate(size["heavy_n"]):
        edges = heavy_tailed_edges(n, rng)
        attrs = [rng.randrange(101) for _ in range(n)]
        st = GraphStats(edges)
        gpath, apath = workdir / f"heavy{k}_{n}.edges", workdir / f"heavy{k}_{n}.csv"
        _write_edges(gpath, edges)
        apath.write_text("node,value\n" + "".join(
            f"{v},{a}\n" for v, a in enumerate(attrs)), encoding="utf-8")
        canonical = [attrs[int(lab)] for lab in st.labels]
        g, a = str(gpath), str(apath)
        ops += [
            Op(["analyze", g, a, "--rational"], 1, analyze_check(st, canonical)),
            Op(["classify", g], 1, classify_check(st)),
            Op(["optimize", g, "--witness"], 1, _lp_capped(optimize_check(st), n)),
            Op(["rewire-experiment", g, "--seed", str(base)], 1,
               _lp_capped(rewire_check([g], [st]), n)),
        ]
    seeds = {"crit9_base_seed": base, "heavy_tailed_rng_seed": base}
    return Workload(ops, seeds, _digest(ops, workdir))


# --- growth --------------------------------------------------------------

def growth_check(steps: int, expected_r: list[float]) -> Check:
    def check(out, err, rc):
        rows = _csv_rows(out, ["k", "n", "gap", "r"])
        if [int(r[0]) for r in rows] != list(range(steps + 1)):
            return FAILED, "grow rows are not k = 0..K"
        for r in rows:
            k, n, gap, corr = int(r[0]), int(r[1]), float(r[2]), float(r[3])
            # gap = -9/n exactly; the CSV holds its correctly rounded float.
            if n != 8 + 4 * k or gap != -9 / n:
                return FAILED, f"k={k}: n={n}, gap={gap}; want gap*n == -9"
            if abs(corr - expected_r[k]) > 1e-12:
                return FAILED, f"k={k}: r {corr} != closed form {expected_r[k]}"
        return OK, None
    return _guard(check)


def build_growth(seed: int, scale: str, workdir: Path) -> Workload:
    """Growth has no random input: the step counts are fixed, seed unused."""
    from sgfp.construct import growth_correlation

    steps = SIZES[scale]["grow_steps"]
    expected_r = [growth_correlation(k) for k in range(max(steps) + 1)]
    ops = [Op(["grow", str(k)], k, growth_check(k, expected_r)) for k in steps]
    return Workload(ops, {}, _digest(ops, workdir))


MAKE_WORKLOAD = {
    "census": build_census,
    "threshold": build_threshold,
    "network": build_network,
    "growth": build_growth,
}


def _digest(ops: list[Op], workdir: Path) -> str:
    """sha256 of every op's arguments and input files, independent of where
    the work directory is."""
    h = hashlib.sha256()
    prefix = str(workdir) + "/"
    for op in ops:
        h.update(json.dumps([a.replace(prefix, "") for a in op.argv]).encode())
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()

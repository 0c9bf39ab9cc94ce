"""Experiment harness: random-graph census, growth curve, rewiring study.

Each record's CSV columns are its dataclass fields, in order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .classify import _affine_fit
from .construct import initial_growth_state, grow_step
from .errors import PreconditionViolatedError
from .graph import Graph, Kernel, _kernel_of, kernel
from .lp import _EXACT_MAX_N, _check_epsilon, _failing_witness
from .metrics import correlation, r_d_delta, singular_gap
from .randgen import _graph_of, _sample_blocks, configuration_rewire, mix


@dataclass
class CensusRecord:
    n: int
    samples: int
    pro_count: int
    pro_proportion: float
    mean_r_high_pro: Optional[float]
    mean_r_high_anti: Optional[float]
    mean_r_ddelta_pro: Optional[float]
    mean_r_ddelta_anti: Optional[float]
    base_seed: int


def _census_chunk(args: tuple[int, float, float, Sequence[int]]) -> list[tuple[bool, float, float]]:
    """(is_pro, r_high, r_ddelta) for the census draws with these sample seeds.

    Up to the LP's exact size the draws' degrees and y = L * delta are
    computed as arrays, and all three results are functions of a draw's
    sorted (degree, y) pairs: draws with the same pairs share one memo
    entry, kept for this call only, and only a miss builds a kernel.
    Larger draws each build a graph. At most `_CHUNK` seeds are sampled
    at once.
    """
    n, p, epsilon, seeds = args
    memo: dict = {}
    out = []
    blocks = (adj for i in range(0, len(seeds), _CHUNK)
              for adj in _sample_blocks(n, p, seeds[i:i + _CHUNK]))
    for adj in blocks:
        if n > _EXACT_MAX_N:
            out += [_census_row(kernel(_graph_of(a)), epsilon) for a in adj]
            continue
        deg = adj.sum(2)
        big_l = np.lcm.reduce(deg, axis=1)  # y <= n * lcm(1..n-1) fits in int64
        y = (adj * (big_l[:, None] // deg)[:, None, :]).sum(2)
        for d, lcm, ys in zip(deg.tolist(), big_l.tolist(), y.tolist()):
            key = tuple(sorted(zip(d, ys)))
            row = memo.get(key)
            if row is None:
                row = memo[key] = _census_row(_kernel_of(d, lcm, ys), epsilon)
            out.append(row)
    return out


def _census_row(k: Kernel, epsilon: float) -> tuple[bool, float, float]:
    """(is_pro, r_high, r_ddelta) of one draw's kernel; r_high is NaN when
    the LP is infeasible at `epsilon`."""
    res = _failing_witness(k, epsilon)
    return (_affine_fit(k.deg, k.y)[0] is not None,
            float("nan") if res is None else res.r_high, k.r_ddelta)


_CHUNK = 256  # samples per task sent to a worker process


def census(n: int, samples: int, seed: int, p: float = 0.5,
           epsilon: float = 0.001, jobs: int = 1) -> CensusRecord:
    """Classify and optimize `samples` connected non-regular G(n, p) draws.

    Deterministic for a fixed seed regardless of `jobs`: every sample uses
    its own derived seed and results reduce in sample order. At most one
    worker process runs per chunk of samples.
    """
    return _census(n, samples, seed, p, epsilon, jobs)[0]


def _census(n: int, samples: int, seed: int, p: float = 0.5,
            epsilon: float = 0.001, jobs: int = 1) -> tuple[CensusRecord, int]:
    """:func:`census` and the number of draws whose LP is infeasible at
    `epsilon` (their r_high is left out of the means)."""
    if samples < 1:
        raise PreconditionViolatedError("samples must be >= 1")
    if jobs < 1:
        raise PreconditionViolatedError("jobs must be >= 1")
    _check_epsilon(epsilon)
    seeds = [mix(mix(seed, n), i) for i in range(samples)]
    chunks = [(n, p, epsilon, seeds[i:i + _CHUNK]) for i in range(0, samples, _CHUNK)]
    workers = min(jobs, len(chunks))
    if workers > 1:
        # Imported here: it loads multiprocessing, which one job never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [row for rows in pool.map(_census_chunk, chunks) for row in rows]
    else:
        results = _census_chunk((n, p, epsilon, seeds))

    pro_rh, anti_rh, pro_rdd, anti_rdd = [], [], [], []
    for is_pro, r_high, r_dd in results:
        if is_pro:
            pro_rh.append(r_high)
            pro_rdd.append(r_dd)
        else:
            anti_rh.append(r_high)
            anti_rdd.append(r_dd)

    def _mean(xs):
        xs = [x for x in xs if x == x]  # drop NaN
        return sum(xs) / len(xs) if xs else None

    record = CensusRecord(
        n=n, samples=samples, pro_count=len(pro_rdd),
        pro_proportion=len(pro_rdd) / samples,
        mean_r_high_pro=_mean(pro_rh), mean_r_high_anti=_mean(anti_rh),
        mean_r_ddelta_pro=_mean(pro_rdd), mean_r_ddelta_anti=_mean(anti_rdd),
        base_seed=seed,
    )
    return record, sum(r_high != r_high for _, r_high, _ in results)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], fh: TextIO) -> None:
    """Write a header and rows with the csv module, which ends lines in CRLF."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


GROW_COLUMNS = ["k", "n", "gap", "r"]


def grow_table(steps: int) -> list[tuple[int, int, float, float]]:
    """Rows (k, n, gap, r) for the fig1 seed growth, k = 0..steps."""
    if steps < 0:
        raise PreconditionViolatedError("steps must be >= 0")
    state = initial_growth_state()
    rows = []
    for _ in range(steps + 1):
        g, attrs = state.graph, list(state.attrs)
        gap = float(singular_gap(g, attrs))
        r = correlation(kernel(g).deg, attrs)
        rows.append((state.k, g.n, gap, r))
        if state.k < steps:
            state = grow_step(state)
    return rows


@dataclass
class RewireRecord:
    network_id: str
    r_high_original: float
    r_ddelta_original: float
    r_high_rewired: Optional[float]
    r_ddelta_rewired: Optional[float]
    seed: int


def strip_isolates(g: Graph) -> Graph:
    """Drop degree-0 nodes, keeping canonical order of the remainder."""
    keep = [i for i in range(g.n) if len(g.adj[i]) > 0]
    remap = {old: new for new, old in enumerate(keep)}
    adj = [[remap[v] for v in g.adj[i]] for i in keep]
    return Graph(adj, [g.labels[i] for i in keep])


def r_high_loose(g: Graph, epsilon: float) -> Optional[float]:
    """Failing-correlation LP without the connectivity requirement.

    Isolates must already be stripped. Returns None for regular graphs or
    when the LP is infeasible at the given slack.
    """
    k = kernel(g)
    if len(set(k.deg)) <= 1 or 0 in k.deg:
        return None
    res = _failing_witness(k, epsilon)
    return None if res is None else res.r_high


def rewire_experiment(graphs: Sequence[tuple[str, Graph]], seed: int,
                      epsilon: float = 0.001) -> list[RewireRecord]:
    """Compare failing-correlation bounds before and after rewiring.

    Each input graph is rewired once with the configuration model; isolates
    produced by dropped collisions are disregarded in the rewired metrics.
    """
    _check_epsilon(epsilon)
    records = []
    for index, (name, g) in enumerate(graphs):
        g0 = strip_isolates(g)
        rh0 = r_high_loose(g0, epsilon)
        rdd0 = r_d_delta(g0)
        rw_seed = mix(seed, index)
        rew = strip_isolates(configuration_rewire(g, rw_seed))
        rh1 = r_high_loose(rew, epsilon) if rew.n >= 2 else None
        rdd1 = r_d_delta(rew) if rew.n >= 2 else None
        records.append(RewireRecord(
            network_id=name,
            r_high_original=rh0, r_ddelta_original=rdd0,
            r_high_rewired=rh1, r_ddelta_rewired=rdd1,
            seed=rw_seed,
        ))
    return records

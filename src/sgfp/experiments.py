"""Experiment harness: random-graph census, growth curve, rewiring study.

Each record's CSV columns are its dataclass fields, in order.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .construct import initial_growth_state, grow_step
from .errors import InvariantBrokenError, PreconditionViolatedError
from .graph import Graph, Kernel, _arc_sums, _from_keys, _moments, _pearson, _sources, kernel
from .lp import _check_epsilon, _r_high
from .randgen import _draws, _sample_blocks, _seeds, configuration_rewire, mix


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


def _census_chunk(n: int, epsilon: float, seeds: np.ndarray) -> list[tuple[bool, float, float]]:
    """(is_pro, r_high, r_ddelta) for the census draws with these sample seeds,
    drawn by one :func:`_sample_blocks` call, whose block bounds the memory.

    The draws' degrees and y = L * delta are computed in numpy, and all
    three results are functions of a draw's sorted (degree, y) pairs:
    draws with the same pairs share one memo entry, kept for this call,
    and a miss builds one :class:`Kernel` of the draw, no graph.
    """
    memo: dict = {}
    out = []
    for adj in _sample_blocks(n, 0.5, seeds):
        # L in Python ints above _INT64_MAX_N nodes, y too where (n - 1) L may not fit.
        deg = adj.sum(2, dtype=np.int64)
        big_l = np.lcm.reduce(deg if n <= _INT64_MAX_N else deg.astype(object), axis=1)
        w = (big_l[:, None] // deg).astype(np.int64 if big_l.max() < 2 ** 63 // (n - 1) else object)
        y = (adj * w[:, None, :]).sum(2)
        for d, lcm, ys in zip(deg.tolist(), big_l.tolist(), y.tolist()):
            key = tuple(sorted(zip(d, ys)))
            row = memo.get(key)
            if row is None:
                row = memo[key] = _census_row(Kernel(tuple(d), lcm, tuple(ys)), epsilon)
            out.append(row)
    return out


def _census_row(k: Kernel, epsilon: float) -> tuple[bool, float, float]:
    """(is_pro, r_high, r_ddelta) of one connected draw from its kernel;
    r_high is NaN when the LP is infeasible at `epsilon`. It is pro (y affine
    in d) when the moments of (d, y) have a * a = b * c, as a > 0 makes the
    slope positive (see :func:`classify`). They are summed here, as one
    use does not pay for the cache of :attr:`Kernel.moments`."""
    a, b, c = _moments(k.deg, k.y)
    res = _r_high(k, epsilon)
    return (a * a == b * c, float("nan") if res is None else res[0],
            _pearson(len(k.deg), a, b, c, 1, k.lcm))


_INT64_MAX_N = 43  # the largest n with y <= (n - 1) * lcm(1..n-1) < 2**63


def _workers(jobs: int, samples: int) -> int:
    """min(jobs, samples, CPU count); the CPU count is read only when jobs
    and samples are both at least 2."""
    workers = min(jobs, samples)
    return min(workers, os.cpu_count() or 1) if workers > 1 else workers


@contextmanager
def census_pool(jobs: int, samples: int):
    """The process pool on which :func:`census` runs `samples` draws with
    `jobs`, to be shared by its calls for several sizes; None (no process
    started) when that is one worker."""
    workers = _workers(jobs, samples)
    if workers < 2:
        yield None
        return
    # Imported here: it loads multiprocessing, which one worker never uses.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def census(n: int, samples: int, seed: int, epsilon: float = 0.001, jobs: int = 1,
           pool=None) -> tuple[CensusRecord, int]:
    """Classify and optimize `samples` connected non-regular G(n, 1/2) draws;
    also returns the number of draws whose LP is infeasible at `epsilon`
    (their r_high is left out of the means).

    The same for every `jobs`: each sample has its own derived seed, and
    min(jobs, samples, CPU count) processes take one contiguous share each,
    with one memo, joined in sample order. They run on `pool`, the
    :func:`census_pool` of (jobs, samples), when the caller has one; else on
    a pool of this call's own. When that minimum is 1 this process takes
    every draw, with no pool; the CPU count is read only when jobs and
    samples are both at least 2.
    """
    if samples < 1:
        raise PreconditionViolatedError("samples must be >= 1")
    if jobs < 1:
        raise PreconditionViolatedError("jobs must be >= 1")
    _check_epsilon(epsilon)
    seeds = _draws(_seeds([mix(seed, n)]), 0, samples)[0]  # mix(mix(seed, n), i) for each i
    workers = _workers(jobs, samples)
    task = partial(_census_chunk, n, epsilon)
    if workers < 2:
        results = task(seeds)
    else:
        shares = [seeds[k * samples // workers:(k + 1) * samples // workers]
                  for k in range(workers)]
        with nullcontext(pool) if pool else census_pool(jobs, samples) as pool:
            results = [row for rows in pool.map(task, shares) for row in rows]

    def _mean(pro, column):
        xs = [row[column] for row in results if row[0] == pro and row[column] == row[column]]
        return sum(xs) / len(xs) if xs else None  # NaN dropped

    pro_count = sum(row[0] for row in results)
    record = CensusRecord(
        n=n, samples=samples, pro_count=pro_count, pro_proportion=pro_count / samples,
        mean_r_high_pro=_mean(True, 1), mean_r_high_anti=_mean(False, 1),
        mean_r_ddelta_pro=_mean(True, 2), mean_r_ddelta_anti=_mean(False, 2),
        base_seed=seed,
    )
    return record, sum(r_high != r_high for _, r_high, _ in results)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header and rows as the csv module writes them, with CRLF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def grow_table(steps: int) -> list[tuple[int, int, float, float]]:
    """Rows (k, n, gap, r) for the fig1 seed growth, k = 0..steps.

    Each row comes from its step's arrays and kernel in int64: the gap is
    (y . a - L sum(a)) / (L n), once the friend form (L // d) . t, with t the
    neighbour sums of a, has the same numerator (as :func:`metrics.singular_gap`
    checks); r is the Pearson correlation of (d, a). The bound n max(L, |a|)^2
    < 2**63 (L is at least every degree), checked on every step, keeps every
    sum in int64.
    """
    if steps < 0:
        raise PreconditionViolatedError("steps must be >= 0")
    state = initial_growth_state()
    rows = []
    for _ in range(steps + 1):
        g, k = state.graph, kernel(state.graph)
        n, deg, a = g.n, g.deg, np.array(state.attrs, np.int64)
        if n * max(k.lcm, int(np.abs(a).max())) ** 2 >= 2 ** 63:
            raise InvariantBrokenError(f"step {state.k}: sums beyond int64")
        weighted = int(np.array(k.y, np.int64) @ a)
        friends = int((k.lcm // deg) @ _arc_sums(g, a[g.nbr]))
        if friends != weighted:
            raise InvariantBrokenError(f"step {state.k}: gap forms disagree: {friends} != "
                                       f"{weighted} over L = {k.lcm}")
        sum_d, sum_a = int(deg.sum()), int(a.sum())
        r = _pearson(n, n * int(deg @ a) - sum_d * sum_a, n * int(deg @ deg) - sum_d * sum_d,
                     n * int(a @ a) - sum_a * sum_a, 1, 1)
        rows.append((state.k, n, (weighted - k.lcm * sum_a) / (k.lcm * n), r))
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


CENSUS_COLUMNS = [f.name for f in fields(CensusRecord)]
GROW_COLUMNS = ["k", "n", "gap", "r"]
REWIRE_COLUMNS = [f.name for f in fields(RewireRecord)]


def strip_isolates(g: Graph) -> Graph:
    """Drop degree-0 nodes, keeping canonical order of the remainder; `g`
    itself when it has none."""
    if g.deg.all():
        return g
    keep = np.flatnonzero(g.deg)
    # Renumbering is monotone, so the keys of the kept arcs stay sorted.
    rank = np.cumsum(g.deg > 0) - 1
    return _from_keys(len(keep), rank[_sources(g)] * len(keep) + rank[g.nbr],
                      tuple(map(g.labels.__getitem__, keep.tolist())))


def r_high_loose(g: Graph, epsilon: float) -> Optional[float]:
    """Failing-correlation LP without the connectivity requirement, over the
    nodes with edges (as in :attr:`Kernel.moments`). Returns None when the LP
    is infeasible at the given slack, as when their degrees are all equal.
    """
    res = _r_high(g, epsilon)
    return None if res is None else res[0]


def rewire_experiment(graphs: Sequence[tuple[str, Graph]], seed: int,
                      epsilon: float = 0.001) -> list[RewireRecord]:
    """Compare failing-correlation bounds before and after rewiring.

    Each input graph is rewired once with the configuration model; both
    graphs' metrics disregard isolates, as dropped collisions may leave some.
    """
    _check_epsilon(epsilon)
    records = []
    for index, (name, g) in enumerate(graphs):
        rw_seed = mix(seed, index)
        rew = configuration_rewire(g, rw_seed)[0]
        records.append(RewireRecord(network_id=name, r_high_original=r_high_loose(g, epsilon),
                                    r_ddelta_original=kernel(g).r_ddelta,
                                    r_high_rewired=r_high_loose(rew, epsilon),
                                    r_ddelta_rewired=kernel(rew).r_ddelta, seed=rw_seed))
    return records

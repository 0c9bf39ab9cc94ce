"""Experiment harness: random-graph census, growth curve, rewiring study.

Each record's CSV columns are its dataclass fields, in order.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .construct import initial_growth_state, grow_step
from .errors import PreconditionViolatedError
from .graph import Graph, _from_keys, _moments, _pearson, _sources, kernel
from .lp import _check_epsilon, _r_high
from .metrics import correlation, singular_gap
from .randgen import _sample_blocks, configuration_rewire, mix


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


def _census_chunk(n: int, epsilon: float, seeds: list[int]) -> list[tuple[bool, float, float]]:
    """(is_pro, r_high, r_ddelta) for the census draws with these sample seeds,
    drawn by one :func:`_sample_blocks` call, whose block bounds the memory.

    The draws' degrees and y = L * delta are computed as arrays, and all
    three results are functions of a draw's sorted (degree, y) pairs:
    draws with the same pairs share one memo entry, kept for this call.
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
                row = memo[key] = _census_row(d, lcm, ys, epsilon)
            out.append(row)
    return out


def _census_row(deg: Sequence[int], big_l: int, y: Sequence[int],
                epsilon: float) -> tuple[bool, float, float]:
    """(is_pro, r_high, r_ddelta) of one connected draw from its degrees,
    their lcm L and y = L * delta; r_high is NaN when the LP is infeasible
    at `epsilon`. It is pro (y affine in d) when the moments of (d, y) have
    a * a = b * c, as a > 0 makes the slope positive (see :func:`classify`)."""
    a, b, c = _moments(deg, y)
    res = _r_high(deg, y, big_l, epsilon)
    return (a * a == b * c, float("nan") if res is None else res[0],
            _pearson(len(deg), a, b, c, 1, big_l))


_INT64_MAX_N = 43  # the largest n with y <= (n - 1) * lcm(1..n-1) < 2**63


def census(n: int, samples: int, seed: int, epsilon: float = 0.001,
           jobs: int = 1) -> tuple[CensusRecord, int]:
    """Classify and optimize `samples` connected non-regular G(n, 1/2) draws;
    also returns the number of draws whose LP is infeasible at `epsilon`
    (their r_high is left out of the means).

    The same for every `jobs`: each sample has its own derived seed, and
    min(jobs, samples, CPU count) processes (this one alone if that is 1)
    take one contiguous share each, with one memo, joined in sample order.
    """
    if samples < 1:
        raise PreconditionViolatedError("samples must be >= 1")
    if jobs < 1:
        raise PreconditionViolatedError("jobs must be >= 1")
    _check_epsilon(epsilon)
    seeds = [mix(mix(seed, n), i) for i in range(samples)]
    workers = min(jobs, samples, os.cpu_count() or 1)
    shares = [seeds[k * samples // workers:(k + 1) * samples // workers] for k in range(workers)]
    if workers > 1:
        # Imported here: it loads multiprocessing, which one worker never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_share = list(pool.map(partial(_census_chunk, n, epsilon), shares))
    else:
        per_share = [_census_chunk(n, epsilon, seeds)]
    results = [row for rows in per_share for row in rows]

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
    nodes with edges (as in :attr:`Kernel.moments`). Returns None when their
    degrees are all equal or when the LP is infeasible at the given slack.
    """
    k = kernel(g)
    deg, y = k.active()
    if len(set(deg)) <= 1:
        return None
    res = _r_high(deg, y, k.lcm, epsilon)
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

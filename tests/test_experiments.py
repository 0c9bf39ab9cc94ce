import concurrent.futures
import os

import numpy as np
import pytest

from sgfp import experiments
from sgfp.classify import PRO, classify
from sgfp.errors import InfeasibleAtEpsilonError
from sgfp.construct import path
from sgfp.experiments import (CensusRecord, RewireRecord, _census_row, census, r_high_loose,
                              rewire_experiment, strip_isolates)
from sgfp.graph import Graph, Kernel, build_graph, kernel
from sgfp.lp import _failing_witness, _r_high, max_failing_correlation
from sgfp.metrics import r_d_delta
from sgfp.randgen import configuration_rewire, gnp, mix

from conftest import affine_fit, every_signature, preferential_attachment, reference_sample


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.fixture
def serial_pool(monkeypatch):
    """Census pools run in-process as _SerialPool; returns a CPU count setter."""
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    return lambda cpus: monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("jobs, samples, cpus, pools", [
    (5000, 4, 8, [4]),    # no more workers than samples
    (5000, 600, 8, [8]),  # nor than CPUs
    (8, 600, 2, [2]),
    (2, 600, 1, []),      # one worker: runs in-process
])
def test_census_starts_at_most_one_worker_per_job_sample_and_cpu(serial_pool, jobs, samples,
                                                                 cpus, pools):
    serial_pool(cpus)
    assert census(4, samples, seed=1, jobs=jobs) == census(4, samples, seed=1)
    assert _SerialPool.created == pools


def test_census_keeps_one_memo_per_worker(serial_pool, monkeypatch):
    serial_pool(8)
    calls, original = [], experiments._census_row

    def row(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "_census_row", row)
    record = census(5, 600, seed=1, jobs=1)
    one = len(calls)
    assert census(5, 600, seed=1, jobs=2) == record
    assert len(calls) - one <= 2 * one  # two workers, so at most two memos


def test_census_is_deterministic_across_jobs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on a 1-CPU host too
    assert census(5, 600, seed=3, jobs=2) == census(5, 600, seed=3, jobs=1)


def _census_without_memo(n, samples, seed, epsilon):
    """Census reference: classify and solve every draw, with no memo."""
    rows = {True: ([], []), False: ([], [])}
    infeasible = 0
    for i in range(samples):
        g = reference_sample(n, 0.5, mix(mix(seed, n), i))
        cls = classify(g)
        try:
            r_high = max_failing_correlation(g, epsilon).r_high
        except InfeasibleAtEpsilonError:
            r_high = None
            infeasible += 1
        rh, rdd = rows[cls.kind == PRO]
        if r_high is not None:
            rh.append(r_high)
        rdd.append(cls.r_ddelta)

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    pro = len(rows[True][1])
    return CensusRecord(n, samples, pro, pro / samples,
                        mean(rows[True][0]), mean(rows[False][0]),
                        mean(rows[True][1]), mean(rows[False][1]), seed), infeasible


@pytest.mark.parametrize("epsilon", [1e-3, 0.9])  # 0.9 leaves some draws infeasible
@pytest.mark.parametrize("jobs", [1, 2])
def test_census_memo_matches_reference_without_memo(monkeypatch, jobs, epsilon):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in range(3, 8):
        assert census(n, 300, seed=8, epsilon=epsilon, jobs=jobs) == \
            _census_without_memo(n, 300, 8, epsilon)


# 43: the last size with L in int64; 44: L in Python ints, y back in int64;
# 80: most blocks keep y in Python ints.
@pytest.mark.parametrize("n", [43, 44, 80])
def test_census_matches_reference_around_the_int64_limit(n):
    assert census(n, 30, seed=9) == _census_without_memo(n, 30, 9, 1e-3)


def test_strip_isolates():
    g = Graph([[1], [0, 2], [1]], ["a", "b", "c"])
    assert strip_isolates(g) is g
    h = Graph([[], [2], [1], []], ["w", "x", "y", "z"])
    assert strip_isolates(h) == Graph([[1], [0]], ["x", "y"])


def test_r_high_loose_is_none_when_the_lp_is_infeasible():
    g = path(5)
    assert r_high_loose(g, 3.0) is None  # no failing sample within a slack of 3
    assert r_high_loose(g, 1e-3) is not None
    (record,) = rewire_experiment([("p5", g)], seed=0, epsilon=3.0)
    assert (record.network_id, record.r_high_original, record.r_high_rewired) == ("p5", None, None)
    assert record.r_ddelta_original == r_d_delta(g)
    assert record.seed == mix(0, 0)


def test_census_row_equals_the_kernel_path_on_every_signature():
    # The census computes a draw's row from (degrees, L, y) with no Kernel.
    for n in range(3, 8):
        for d, big_l, y in every_signature(n):
            k = Kernel(tuple(d), big_l, tuple(y))
            res = _failing_witness(k, 1e-3)
            is_pro, r_high, r_dd = _census_row(d, big_l, y, 1e-3)
            assert is_pro == (affine_fit(k.deg, k.y) is not None)
            assert r_high == res.r_high if res else r_high != r_high
            assert r_dd == k.r_ddelta


def reference_r_high_loose(g, epsilon):
    """r_high_loose as it was: on a graph with no isolates, None when regular."""
    k = kernel(g)
    assert 0 not in k.deg
    if len(set(k.deg)) <= 1:
        return None
    res = _r_high(k.deg, k.y, k.lcm, epsilon)
    return None if res is None else res[0]


def reference_rewire_experiment(graphs, seed, epsilon=0.001):
    """The rewiring study by the recipe it replaced: strip both graphs'
    isolates, take r_d_delta of the stripped copies, and leave a rewired
    graph of fewer than two nodes without metrics."""
    records = []
    for index, (name, g) in enumerate(graphs):
        g0 = strip_isolates(g)
        rw_seed = mix(seed, index)
        rew = strip_isolates(configuration_rewire(g, rw_seed)[0])
        records.append(RewireRecord(
            network_id=name, r_high_original=reference_r_high_loose(g0, epsilon),
            r_ddelta_original=r_d_delta(g0),
            r_high_rewired=reference_r_high_loose(rew, epsilon) if rew.n >= 2 else None,
            r_ddelta_rewired=r_d_delta(rew) if rew.n >= 2 else None, seed=rw_seed))
    return records


_BASE = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "d")]
WITH_ISOLATES = [
    build_graph(_BASE, nodes=["x", *"abcde"]),  # an isolate at the start
    build_graph(_BASE, nodes=["a", "b", "x", "c", "d", "e"]),  # in the middle
    build_graph(_BASE, nodes=[*"abcde", "x"]),  # at the end
    build_graph(_BASE, nodes=["x", "a", "b", "y", "c", "d", "e", "z"]),
    build_graph([("a", "b")], nodes=["x", "a", "y", "b", "z"]),  # one edge
    build_graph([], nodes=range(4)),  # no edges at all
    *(gnp(12 + i, 0.15, mix(204, i)) for i in range(20)),
]


def _rewired_with_isolates(g, count):
    """The first `count` rewires of g, by seeds 0, 1, ..., that leave isolates."""
    rewired = (configuration_rewire(g, seed)[0] for seed in range(10 * count))
    return [h for h in rewired if not h.deg.all()][:count]


def test_r_high_loose_equals_it_on_the_stripped_graph():
    graphs = [g for g in WITH_ISOLATES if not g.deg.all()]
    large = _rewired_with_isolates(preferential_attachment(150, 3), 3)  # the float-filtered LP
    graphs += _rewired_with_isolates(build_graph(_BASE), 2) + large
    assert len(graphs) > 15 and len(large) == 3
    for g in graphs:
        for epsilon in (1e-3, 0.5):
            want = reference_r_high_loose(strip_isolates(g), epsilon)
            got = r_high_loose(g, epsilon)
            assert got == want and (got is None) == (want is None)
    assert r_high_loose(WITH_ISOLATES[0], 1e-3) is not None
    assert r_high_loose(WITH_ISOLATES[4], 1e-3) is None and r_high_loose(WITH_ISOLATES[5], 1e-3) is None


def test_rewire_experiment_equals_the_stripping_recipe():
    # A triangle's rewire keeps no edge when its six stubs pair into three loops (1 in 15).
    triangles = [build_graph([(0, 1), (1, 2), (2, 0)])] * 10
    graphs = [(str(i), g) for i, g in enumerate([*WITH_ISOLATES, *triangles, path(3), path(6),
                                                 preferential_attachment(150, 3)])]
    no_edges = lost_nodes = 0
    for seed in range(8):
        records = rewire_experiment(graphs, seed)
        assert records == reference_rewire_experiment(graphs, seed)
        for (_, g), record in zip(graphs, records):
            rew = configuration_rewire(g, record.seed)[0]
            no_edges += g.m > 0 and rew.m == 0
            lost_nodes += rew.m > 0 and np.count_nonzero(rew.deg) < np.count_nonzero(g.deg)
    assert no_edges and lost_nodes

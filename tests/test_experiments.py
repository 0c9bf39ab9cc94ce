import concurrent.futures

import pytest

from sgfp.classify import PRO, classify
from sgfp.errors import InfeasibleAtEpsilonError
from sgfp.construct import path
from sgfp.experiments import (CensusRecord, _census_row, census, r_high_loose, rewire_experiment,
                              strip_isolates)
from sgfp.graph import Graph, Kernel
from sgfp.lp import _failing_witness, max_failing_correlation
from sgfp.metrics import r_d_delta
from sgfp.randgen import mix

from conftest import affine_fit, every_signature, reference_sample


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


@pytest.mark.parametrize("jobs, samples, pools", [
    (5000, 4, []),      # one chunk: runs in-process
    (5000, 600, [3]),   # three chunks of at most 256 samples
    (2, 600, [2]),
])
def test_census_starts_at_most_one_worker_per_chunk(monkeypatch, jobs, samples, pools):
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    assert census(4, samples, seed=1, jobs=jobs) == census(4, samples, seed=1)
    assert _SerialPool.created == pools


def test_census_is_deterministic_across_jobs():
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
def test_census_memo_matches_reference_without_memo(jobs, epsilon):
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

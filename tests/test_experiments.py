import concurrent.futures

import pytest

from sgfp.classify import PRO, classify
from sgfp.errors import InfeasibleAtEpsilonError
from sgfp.experiments import CensusRecord, census
from sgfp.lp import max_failing_correlation
from sgfp.randgen import mix

from conftest import reference_sample


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
    for i in range(samples):
        g = reference_sample(n, 0.5, mix(mix(seed, n), i))
        cls = classify(g)
        try:
            r_high = max_failing_correlation(g, epsilon).r_high
        except InfeasibleAtEpsilonError:
            r_high = None
        rh, rdd = rows[cls.kind == PRO]
        if r_high is not None:
            rh.append(r_high)
        rdd.append(cls.r_ddelta)

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    pro = len(rows[True][1])
    return CensusRecord(n, samples, pro, pro / samples,
                        mean(rows[True][0]), mean(rows[False][0]),
                        mean(rows[True][1]), mean(rows[False][1]), seed)


@pytest.mark.parametrize("epsilon", [1e-3, 0.9])  # 0.9 leaves some draws infeasible
@pytest.mark.parametrize("jobs", [1, 2])
def test_census_memo_matches_reference_without_memo(jobs, epsilon):
    for n in range(3, 8):
        assert census(n, 300, seed=8, epsilon=epsilon, jobs=jobs) == \
            _census_without_memo(n, 300, 8, epsilon)


@pytest.mark.parametrize("n", [20, 21])  # the last batch-kernel size, the first per-graph size
def test_census_matches_reference_around_the_exact_size(n):
    assert census(n, 30, seed=9) == _census_without_memo(n, 30, 9, 1e-3)

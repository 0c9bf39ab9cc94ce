import concurrent.futures

import pytest

from sgfp.experiments import census


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

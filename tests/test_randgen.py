import math

import pytest

from sgfp.classify import PRO, classify
from sgfp.errors import ExhaustedTriesError
from sgfp.graph import build_graph, degrees, is_connected, is_regular
from sgfp.randgen import (
    SplitMix64,
    configuration_rewire,
    configuration_rewire_with_stats,
    gnp,
    mix,
    sample_connected_nonregular,
)


def test_gnp_extremes():
    assert gnp(6, 0.0, 1).m == 0
    g = gnp(6, 1.0, 1)
    assert g.m == 15
    assert is_regular(g)


def test_gnp_determinism():
    assert gnp(10, 0.5, 99).adj == gnp(10, 0.5, 99).adj
    assert gnp(10, 0.5, 99).adj != gnp(10, 0.5, 100).adj


def test_seed_stream_derivation():
    assert mix(7, 0) == mix(7, 0)
    assert mix(7, 0) != mix(7, 1)
    assert mix(8, 0) != mix(7, 0)


def test_gnp_mean_edge_count():
    total = 0
    samples = 10000
    for i in range(samples):
        total += gnp(8, 0.5, mix(5, i)).m
    mean = total / samples
    assert abs(mean - 14.0) < 0.5


def test_gnp_edge_count_chi_square():
    # Edge count is Binomial(28, 1/2); compare observed bucket frequencies.
    samples = 10000
    counts = {}
    for i in range(samples):
        m = gnp(8, 0.5, mix(17, i)).m
        counts[m] = counts.get(m, 0) + 1
    buckets = [(0, 11), (12, 12), (13, 13), (14, 14), (15, 15), (16, 16), (17, 28)]
    probs = []
    for lo, hi in buckets:
        probs.append(sum(math.comb(28, k) for k in range(lo, hi + 1)) / 2**28)
    chi2 = 0.0
    for (lo, hi), p in zip(buckets, probs):
        observed = sum(c for m, c in counts.items() if lo <= m <= hi)
        expected = samples * p
        chi2 += (observed - expected) ** 2 / expected
    # 6 degrees of freedom; 0.999 quantile is about 22.46.
    assert chi2 < 22.46


def test_sample_connected_nonregular_postcondition():
    for i in range(50):
        g = sample_connected_nonregular(6, 0.5, mix(3, i))
        assert is_connected(g)
        assert not is_regular(g)


def test_n3_always_path_topology():
    for i in range(100):
        g = sample_connected_nonregular(3, 0.5, mix(9, i))
        assert sorted(degrees(g)) == [1, 1, 2]


def test_n4_pro_topologies():
    seen = set()
    for i in range(400):
        g = sample_connected_nonregular(4, 0.5, mix(21, i))
        if classify(g).kind == PRO:
            ds = tuple(sorted(degrees(g)))
            assert ds in {(1, 1, 2, 2), (1, 1, 1, 3), (2, 2, 3, 3)}
            seen.add(ds)
    assert seen == {(1, 1, 2, 2), (1, 1, 1, 3), (2, 2, 3, 3)}


def test_exhausted_tries():
    with pytest.raises(ExhaustedTriesError):
        # p=1 always yields the complete (regular) graph.
        sample_connected_nonregular(5, 1.0, 0, max_tries=10)


def test_rewire_degree_bounds():
    g = gnp(20, 0.3, 4)
    rew, dropped = configuration_rewire_with_stats(g, 77)
    assert dropped >= 0
    for before, after in zip(degrees(g), degrees(rew)):
        assert after <= before
    if dropped == 0:
        assert degrees(rew) == degrees(g)
    # Stub conservation: kept pairs plus dropped pairs cover all stubs.
    assert 2 * (rew.m + dropped) == sum(degrees(g)) - (sum(degrees(g)) % 2)


def test_rewire_deterministic():
    g = gnp(15, 0.4, 8)
    assert configuration_rewire(g, 5).adj == configuration_rewire(g, 5).adj


def test_splitmix_reference_values():
    # random() stays in [0, 1) and streams are reproducible.
    rng = SplitMix64(42)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    rng2 = SplitMix64(42)
    assert vals[:10] == [rng2.random() for _ in range(10)]

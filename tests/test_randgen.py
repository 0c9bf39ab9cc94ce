import math
import random
import warnings

import numpy as np
import pytest

from sgfp import randgen
from sgfp.classify import PRO, classify
from sgfp.errors import ExhaustedTriesError
from sgfp.experiments import census
from sgfp.graph import degrees, is_connected, is_regular
from sgfp.randgen import (
    SplitMix64,
    _below,
    _sample_blocks,
    _shuffle,
    configuration_rewire,
    gnp,
    mix,
    sample_connected_nonregular,
)

from conftest import reference_gnp, reference_sample


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
    rew, dropped = configuration_rewire(g, 77)
    assert dropped >= 0
    for before, after in zip(degrees(g), degrees(rew)):
        assert after <= before
    if dropped == 0:
        assert degrees(rew) == degrees(g)
    # Stub conservation: kept pairs plus dropped pairs cover all stubs.
    assert 2 * (rew.m + dropped) == sum(degrees(g)) - (sum(degrees(g)) % 2)


def test_rewire_deterministic():
    g = gnp(15, 0.4, 8)
    (a, dropped_a), (b, dropped_b) = configuration_rewire(g, 5), configuration_rewire(g, 5)
    assert a.adj == b.adj and dropped_a == dropped_b


def test_splitmix_reference_values():
    # random() stays in [0, 1) and streams are reproducible.
    rng = SplitMix64(42)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    rng2 = SplitMix64(42)
    assert vals[:10] == [rng2.random() for _ in range(10)]


def _matrix(g):
    a = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges():
        a[i, j] = a[j, i] = True
    return a


def _batch_matches_reference(n, p, seeds):
    got = np.concatenate(list(_sample_blocks(n, p, seeds)))
    assert got.shape == (len(seeds), n, n)
    for a, seed in zip(got, seeds):
        assert (a == _matrix(reference_sample(n, p, seed))).all(), (n, p, seed)


def test_batch_sampler_matches_reference_on_criterion_4_draws():
    for n in range(3, 8):
        _batch_matches_reference(n, 0.5, [mix(mix(0, n), i) for i in range(10000)])


@pytest.mark.parametrize("n", [8, 12, 20, 24])  # n = 24: seeds span two blocks
@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_batch_sampler_matches_reference(n, p):
    _batch_matches_reference(n, p, [mix(n, i) for i in range(300)])


def test_batch_sampler_matches_reference_in_small_blocks(monkeypatch):
    # 10 pairs at n = 5: five seeds per block, and fewer tries when many pend.
    record = census(5, 300, seed=31)
    monkeypatch.setattr(randgen, "_BLOCK", 50)
    sizes, original = [], randgen._draws

    def draws(seeds, start, count):
        sizes.append(len(seeds) * count)
        return original(seeds, start, count)

    monkeypatch.setattr(randgen, "_draws", draws)
    _batch_matches_reference(5, 0.3, [mix(31, i) for i in range(40)])
    # A census of 300 samples spans 60 blocks of five seeds, in the same bound.
    assert census(5, 300, seed=31) == record
    assert max(sizes) <= 50


@pytest.mark.parametrize("first", [1, 2, 4, 64])
def test_batch_sampler_keeps_the_reference_try_whatever_the_first_round(monkeypatch, first):
    monkeypatch.setattr(randgen, "_FIRST_TRIES", first)
    _batch_matches_reference(3, 0.5, [mix(51, i) for i in range(200)])
    _batch_matches_reference(6, 0.3, [mix(52, i) for i in range(100)])


def test_below_is_the_float_comparison_in_integers():
    # (z >> 11) 2**-53 < p, with z at and around the integer bound.
    rng = random.Random(53)
    ps = [0.0, 1.0, 0.5, 0.375, 12345 * 2.0 ** -53, 2.0 ** -53, 1 - 2.0 ** -53, 5e-324, 0.3]
    for p in ps + [rng.random() for _ in range(300)]:
        bound = math.ceil(p * 2 ** 53) << 11
        z = [0, 2 ** 64 - 1] + [rng.getrandbits(64) for _ in range(100)]
        z += [v for v in range(bound - 2049, bound + 2050, 1024) if 0 <= v < 2 ** 64]
        got = _below(p)(np.array(z, dtype=np.uint64))
        assert got.tolist() == [(v >> 11) * 2.0 ** -53 < p for v in z], p


def test_generators_raise_no_overflow_warning_and_restore_the_error_state():
    # uint64 arrays wrap silently, even where numpy raises on overflow.
    before = np.geterr()
    for state in ({}, {"over": "raise"}):
        with warnings.catch_warnings(), np.errstate(**state):
            warnings.simplefilter("error")
            inside = np.geterr()
            gnp(40, 0.5, 2 ** 64 - 1)
            _shuffle(list(range(100)), 2 ** 63 + 7)
            for adj in _sample_blocks(6, 0.5, [2 ** 64 - 1, 5, -3]):
                assert np.geterr() == inside
        assert np.geterr() == before


def _first_accepted_try(n, p, seed):
    for t in range(10000):
        g = reference_gnp(n, p, mix(seed, t))
        if is_connected(g) and not is_regular(g):
            return t


def test_batch_sampler_exhausts_at_the_reference_try_count():
    p = 0.3
    seed = next(mix(41, i) for i in range(1000)
                if _first_accepted_try(5, p, mix(41, i)) >= 3)
    t = _first_accepted_try(5, p, seed)
    with pytest.raises(ExhaustedTriesError):
        next(_sample_blocks(5, p, [mix(42, 0), seed], max_tries=t))
    assert sample_connected_nonregular(5, p, seed, max_tries=t + 1) == \
        reference_sample(5, p, seed)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_gnp_matches_reference(p):
    for n in range(1, 61):
        for seed in (-3, 2**64 + 5, 99999999999999999999999):
            assert gnp(n, p, seed) == reference_gnp(n, p, seed), (n, seed)


def test_gnp_matches_reference_across_blocks(monkeypatch):
    monkeypatch.setattr(randgen, "_BLOCK", 7)
    for n in range(1, 31):
        assert gnp(n, 0.5, mix(43, n)) == reference_gnp(n, 0.5, mix(43, n))


def test_shuffle_matches_splitmix_shuffle():
    rng = random.Random(44)
    cases = [(0, 1), (1, 2), (0, -5), (1, 2**64 + 3)]
    cases += [(rng.randrange(200), rng.randrange(-2**65, 2**65)) for _ in range(1996)]
    for length, seed in cases:
        want, got = list(range(length)), list(range(length))
        SplitMix64(seed).shuffle(want)
        _shuffle(got, seed)
        assert got == want, (length, seed)

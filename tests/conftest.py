import random

import pytest

from sgfp.errors import ExhaustedTriesError
from sgfp.graph import build_graph, is_connected, is_regular
from sgfp.randgen import SplitMix64, mix, sample_connected_nonregular


def reference_gnp(n, p, seed):
    """G(n, p) with one SplitMix64.random() draw per pair (i < j), in order."""
    rng = SplitMix64(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(edges, nodes=list(range(n)))


def reference_sample(n, p, seed, max_tries=10000):
    """The first connected non-regular reference_gnp(n, p, mix(seed, t))."""
    for t in range(max_tries):
        g = reference_gnp(n, p, mix(seed, t))
        if is_connected(g) and not is_regular(g):
            return g
    raise ExhaustedTriesError(max_tries)


def random_graphs(base_seed, count, n_range=(4, 10), p=0.5):
    """Seeded stream of connected non-regular graphs for property tests."""
    lo, hi = n_range
    for i in range(count):
        n = lo + mix(base_seed, 10_000 + i) % (hi - lo + 1)
        yield sample_connected_nonregular(n, p, mix(base_seed, i))


def preferential_attachment(n, seed, m=2):
    """Seeded sparse connected graph with heavy-tailed degrees."""
    rng = random.Random(seed)
    edges, ends = [], []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(ends) if ends else rng.randrange(v))
        for u in sorted(chosen):
            edges.append((v, u))
            ends += [u, v]
    return build_graph(edges)


@pytest.fixture
def graph_stream():
    return random_graphs

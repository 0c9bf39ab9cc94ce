import random

import pytest

from sgfp.graph import build_graph
from sgfp.randgen import mix, sample_connected_nonregular


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

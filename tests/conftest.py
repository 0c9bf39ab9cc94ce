import functools
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sgfp.errors import ExhaustedTriesError, ParseError
from sgfp.graph import Kernel, build_graph, is_regular
from sgfp.ingest import read_edge_list
from sgfp.randgen import SplitMix64, configuration_rewire, mix, sample_connected_nonregular


def reference_gnp(n, p, seed):
    """G(n, p) with one SplitMix64.random() draw per pair (i < j), in order."""
    rng = SplitMix64(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(edges, nodes=list(range(n)))


def components(g):
    """Connected components as sets of dense node indices, by depth-first
    search over the neighbour tuples."""
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if not seen[start]:
            seen[start] = True
            comp, stack = {start}, [start]
            while stack:
                for v in g.adj[stack.pop()]:
                    if not seen[v]:
                        seen[v] = True
                        comp.add(v)
                        stack.append(v)
            out.append(comp)
    return out


def reference_is_connected(g):
    return g.n > 0 and len(components(g)) == 1


def reference_kernel(g):
    """The Kernel by one Python loop over the neighbour tuples."""
    deg = tuple(map(len, g.adj))
    big_l = math.lcm(*set(deg).difference((0,)))
    w = [big_l // d if d else 0 for d in deg]
    return Kernel(deg, big_l, tuple([sum(map(w.__getitem__, a)) for a in g.adj]))


def fraction_delta(g):
    """Exact delta by its definition: each node's sum of Fraction(1, deg j)
    over its neighbours j in the neighbour tuples (0 at an isolate)."""
    deg = [len(a) for a in g.adj]
    return tuple(sum((Fraction(1, deg[j]) for j in a), Fraction(0)) for a in g.adj)


def affine_fit(deg, y):
    """The pro test on integer degrees and y = L * delta (two distinct
    degrees at least), by the line through node 0 and the first node j of
    another degree: (dy, dd) when y is exactly an affine function of the
    degrees with slope dy / dd > 0, else None."""
    j = next(i for i, d in enumerate(deg) if d != deg[0])
    dy, dd = y[j] - y[0], deg[j] - deg[0]
    if dy * dd <= 0 or any((yi - y[0]) * dd != dy * (di - deg[0]) for di, yi in zip(deg, y)):
        return None
    return dy, dd


def rewired_with_isolates(g, count):
    """The first `count` rewires of g, by seeds 0, 1, ..., that leave isolates."""
    rewired = (configuration_rewire(g, seed)[0] for seed in range(10 * count))
    return [h for h in rewired if not h.deg.all()][:count]


def reference_sample(n, p, seed, max_tries=10000):
    """The first connected non-regular reference_gnp(n, p, mix(seed, t))."""
    for t in range(max_tries):
        g = reference_gnp(n, p, mix(seed, t))
        if reference_is_connected(g) and not is_regular(g):
            return g
    raise ExhaustedTriesError(max_tries)


def reference_read_edge_list(text):
    """The per-line edge-list reader: split the text on newlines, each line
    on whitespace; skip blank lines and lines whose first label starts with
    '#'; every other line must hold two labels."""
    lines = text.split("\n")
    rows = list(filter(None, map(str.split, lines)))
    if "#" in text:
        rows = [r for r in rows if not r[0].startswith("#")]
    if set(map(len, rows)) - {2}:
        for lineno, parts in enumerate(map(str.split, lines), start=1):
            if parts and not parts[0].startswith("#") and len(parts) != 2:
                raise ParseError(lineno, f"expected two labels, got {len(parts)}")
    return build_graph(rows)


def edge_list_from_string(text):
    """read_edge_list of an in-memory edge list."""
    return read_edge_list(io.StringIO(text))


def random_graphs(base_seed, count, n_range=(4, 10), p=0.5):
    """Seeded stream of connected non-regular graphs for property tests."""
    lo, hi = n_range
    for i in range(count):
        n = lo + mix(base_seed, 10_000 + i) % (hi - lo + 1)
        yield sample_connected_nonregular(n, p, mix(base_seed, i))


def preferential_attachment_edges(n, seed, m=2):
    """The edges of preferential_attachment(n, seed, m), in generation order."""
    rng = random.Random(seed)
    edges, ends = [], []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(ends) if ends else rng.randrange(v))
        for u in sorted(chosen):
            edges.append((v, u))
            ends += [u, v]
    return edges


def preferential_attachment(n, seed, m=2):
    """Seeded sparse connected graph with heavy-tailed degrees."""
    return build_graph(preferential_attachment_edges(n, seed, m))


@pytest.fixture
def graph_stream():
    return random_graphs


def every_signature(n):
    """One (degrees, L, y = L * delta) per census signature on n <= 7 nodes:
    the sorted (degree, y) pairs of every connected non-regular graph."""
    return tuple(row[:3] for row in _signatures(n))


def signature_graphs(n):
    """One connected non-regular graph on nodes 0..n-1 per census signature,
    the graph whose (degrees, L, y) :func:`every_signature` lists."""
    return [build_graph(edges, nodes=range(n)) for *_, edges in _signatures(n)]


@functools.lru_cache(maxsize=None)
def _signatures(n):
    """(degrees, L, y, edges) per census signature. Up to relabelling, node
    0's neighbours are 1..k, so the graphs enumerated are every edge set on
    nodes 1..n-1 with node 0 joined to 1..k, k >= 1."""
    rows, cols = 1 + np.array(np.nonzero(~np.tri(n - 1, dtype=bool)))  # pairs 0 < i < j
    codes = np.arange(1 << len(rows))
    bits = (codes[:, None] >> np.arange(len(rows)) & 1).astype(bool)
    found = {}
    for k in range(1, n):
        adj = np.zeros((len(codes), n, n), dtype=bool)
        adj[:, rows, cols] = adj[:, cols, rows] = bits
        adj[:, 0, 1:k + 1] = adj[:, 1:k + 1, 0] = True
        reach = adj[:, 0] | (np.arange(n) == 0)
        for _ in range(n - 2):
            reach |= (reach[:, None, :] @ adj)[:, 0]
        deg = adj.sum(2)
        keep = reach.all(1) & (deg.min(1) != deg.max(1))
        adj, deg = adj[keep], deg[keep]
        big_l = functools.reduce(np.lcm, deg.T)
        y = (adj * (big_l[:, None] // deg)[:, None, :]).sum(2)
        # Each sorted 12-bit key d * 512 + y (y <= 6 * 60), four to a float.
        keys = np.sort(deg * 512 + y, axis=1)
        radix = 4096 ** np.arange(4)
        _, first = np.unique(keys[:, :4] @ radix[:min(n, 4)]
                             + 1j * (keys[:, 4:] @ radix[:max(n - 4, 0)]), return_index=True)
        for i in first.tolist():
            edges = np.argwhere(np.triu(adj[i])).tolist()
            found.setdefault(tuple(keys[i].tolist()),
                             (deg[i].tolist(), int(big_l[i]), y[i].tolist(), edges))
    return tuple(found.values())

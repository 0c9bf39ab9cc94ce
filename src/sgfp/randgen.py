"""Seeded random graph generation and configuration-model rewiring.

All randomness flows through a splitmix64 generator over Python integers,
so identical seeds give identical graphs on every platform. Per-sample
seeds are derived by mixing a base seed with the sample index, which makes
batch generation order-independent.
"""

from __future__ import annotations

from .errors import ExhaustedTriesError, PreconditionViolatedError
from .graph import Graph, build_graph, is_connected, is_regular

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix(base: int, index: int) -> int:
    """Derive an independent per-sample seed from (base, index)."""
    return _mix64((base + (index + 1) * _GAMMA) & _MASK)


class SplitMix64:
    """Minimal deterministic 64-bit generator."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix64(self.state)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): one uniform draw per unordered pair in (i < j) order."""
    if n < 1:
        raise PreconditionViolatedError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise PreconditionViolatedError("p must be in [0, 1]")
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return build_graph(edges, nodes=list(range(n)))


def sample_connected_nonregular(n: int, p: float, seed: int,
                                max_tries: int = 10000) -> Graph:
    """Rejection-sample G(n, p) until connected and non-regular."""
    if n < 3:
        raise PreconditionViolatedError("n must be >= 3")
    for t in range(max_tries):
        g = gnp(n, p, mix(seed, t))
        if is_connected(g) and not is_regular(g):
            return g
    raise ExhaustedTriesError(max_tries)


def configuration_rewire(g: Graph, seed: int) -> Graph:
    """Stub-matching rewire of g's degree sequence, dropping collisions.

    Self-loops and parallel edges produced by the matching are discarded,
    so rewired degrees may fall below the originals and the result may
    contain isolates.
    """
    grew, _ = configuration_rewire_with_stats(g, seed)
    return grew


def configuration_rewire_with_stats(g: Graph, seed: int) -> tuple[Graph, int]:
    """Like :func:`configuration_rewire`, also returning dropped pair count."""
    stubs: list[int] = []
    for i, neigh in enumerate(g.adj):
        stubs.extend([i] * len(neigh))
    rng = SplitMix64(seed)
    rng.shuffle(stubs)
    edges = []
    seen: set[tuple[int, int]] = set()
    dropped = 0
    for k in range(0, len(stubs) - 1, 2):
        u, v = stubs[k], stubs[k + 1]
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            dropped += 1
            continue
        seen.add(key)
        edges.append(key)
    return build_graph(edges, nodes=list(range(g.n))), dropped

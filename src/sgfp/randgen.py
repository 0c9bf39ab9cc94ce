"""Seeded random graph generation and configuration-model rewiring.

All randomness flows through a splitmix64 generator, so identical seeds
give identical graphs on every platform. Draw k of the stream seeded with
s is mix64(s + k * gamma), independent of every other draw, so whole
blocks of draws are computed at once as numpy uint64 arrays, bit-identical
to :class:`SplitMix64`. Per-sample seeds are derived by mixing a base seed
with the sample index, which makes batch generation order-independent.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import ExhaustedTriesError, PreconditionViolatedError
from .graph import Graph, build_graph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1 << 16  # draws per array: bounds the memory of one sampling step


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


def _seeds(seeds: Sequence[int]) -> np.ndarray:
    """Seeds as a uint64 array, reduced mod 2**64 as :class:`SplitMix64` does."""
    return np.array([s & _MASK for s in seeds], dtype=np.uint64)


def _draws(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Draws start + 1 .. start + count of each seed's stream, shape
    (len(seeds), count): what ``SplitMix64(seed).next_u64()`` returns on
    those calls. Multiplication wraps mod 2**64."""
    with np.errstate(over="ignore"):
        z = seeds[:, None] + np.arange(start + 1, start + count + 1,
                                       dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _below(z: np.ndarray, p: float) -> np.ndarray:
    """``SplitMix64.random() < p`` for draws z."""
    return (z >> np.uint64(11)) * (2.0 ** -53) < p


def _check_gnp(n: int, p: float) -> None:
    if n < 1:
        raise PreconditionViolatedError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise PreconditionViolatedError("p must be in [0, 1]")


def _graph(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on nodes 0..n-1 with edges (u[k], v[k])."""
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(src, kind="stable")
    bounds = np.cumsum(np.bincount(src, minlength=n))[:-1]
    return Graph([a.tolist() for a in np.split(dst[order], bounds)])


def _graph_of(adj: np.ndarray) -> Graph:
    """The graph of an (n, n) boolean adjacency matrix."""
    u, v = np.nonzero(np.triu(adj, 1))
    return _graph(len(adj), u, v)


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): one uniform draw per unordered pair in (i < j) order."""
    _check_gnp(n, p)
    # Pair k of row i is draw offset(i) + k: rows start at these offsets.
    rows = np.arange(n)
    offset = rows * n - rows * (rows + 1) // 2
    total = n * (n - 1) // 2
    base = _seeds([seed])
    us, vs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for start in range(0, total, _BLOCK):
        bits = _below(_draws(base, start, min(_BLOCK, total - start))[0], p)
        k = start + np.flatnonzero(bits)
        i = np.searchsorted(offset, k, side="right") - 1
        us.append(i)
        vs.append(k - offset[i] + i + 1)
    return _graph(n, np.concatenate(us), np.concatenate(vs))


def _connected(adj: np.ndarray) -> np.ndarray:
    """Which of a stack of adjacency matrices are connected: node 0's
    reach, closed under one more hop until it stops growing."""
    reach = adj[:, 0] | (np.arange(adj.shape[1]) == 0)
    while True:
        grown = reach | (reach[:, None, :] @ adj)[:, 0]
        if (grown == reach).all():
            return reach.all(1)
        reach = grown


def _sample_blocks(n: int, p: float, seeds: Sequence[int],
                   max_tries: int = 10000) -> Iterator[np.ndarray]:
    """Adjacency matrices of :func:`sample_connected_nonregular` for each
    seed, in seed order, as (seeds, n, n) boolean arrays of a few seeds each.

    Try t of a seed is G(n, p) drawn from seed ``mix(seed, t)``. Every
    pending seed draws a block of tries at once, two at first (at p = 1/2
    one try is kept with probability 3/8 at n = 3, so one would leave most
    seeds to another round); a seed keeps its first connected non-regular
    try, and only the seeds still pending draw again, with twice the
    tries. One array holds at most ``_BLOCK`` draws or one try's pairs.
    """
    if n < 3:
        raise PreconditionViolatedError("n must be >= 3")
    _check_gnp(n, p)
    rows, cols = np.nonzero(~np.tri(n, dtype=bool))  # pairs i < j in row order
    per_block = max(1, _BLOCK // len(rows))
    for first in range(0, len(seeds), per_block):
        base = _seeds(seeds[first:first + per_block])
        out = np.zeros((len(base), n, n), dtype=bool)
        pending = np.arange(len(base))
        t, tries = 0, 2
        while len(pending):
            if t == max_tries:
                raise ExhaustedTriesError(max_tries)
            tries = max(1, min(tries, max_tries - t, per_block // len(pending)))
            bits = _below(_draws(_draws(base[pending], t, tries).ravel(), 0, len(rows)), p)
            adj = np.zeros((len(bits), n, n), dtype=bool)
            adj[:, rows, cols] = bits
            adj[:, cols, rows] = bits
            deg = adj.sum(2)
            ok = (deg.min(1) != deg.max(1)) & _connected(adj)
            ok = ok.reshape(len(pending), tries)
            hit = ok.any(1)
            out[pending[hit]] = adj.reshape(len(pending), tries, n, n)[hit, ok[hit].argmax(1)]
            pending = pending[~hit]
            t += tries
            tries *= 2
        yield out


def sample_connected_nonregular(n: int, p: float, seed: int,
                                max_tries: int = 10000) -> Graph:
    """Rejection-sample G(n, p) until connected and non-regular."""
    return _graph_of(next(_sample_blocks(n, p, [seed], max_tries))[0])


def configuration_rewire(g: Graph, seed: int) -> Graph:
    """Stub-matching rewire of g's degree sequence, dropping collisions.

    Self-loops and parallel edges produced by the matching are discarded,
    so rewired degrees may fall below the originals and the result may
    contain isolates.
    """
    grew, _ = configuration_rewire_with_stats(g, seed)
    return grew


def _shuffle(items: list, seed: int) -> None:
    """``SplitMix64(seed).shuffle(items)``, its draws taken as one array."""
    m = len(items)
    picks = _draws(_seeds([seed]), 0, max(m - 1, 0))[0] % np.arange(m, 1, -1, dtype=np.uint64)
    for i, j in zip(range(m - 1, 0, -1), picks.tolist()):
        items[i], items[j] = items[j], items[i]


def configuration_rewire_with_stats(g: Graph, seed: int) -> tuple[Graph, int]:
    """Like :func:`configuration_rewire`, also returning dropped pair count."""
    stubs: list[int] = []
    for i, neigh in enumerate(g.adj):
        stubs.extend([i] * len(neigh))
    _shuffle(stubs, seed)
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

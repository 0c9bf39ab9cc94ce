"""Seeded random graph generation and configuration-model rewiring.

All randomness flows through a splitmix64 generator, so identical seeds
give identical graphs on every platform. Draw k of the stream seeded with
s is mix64(s + k * gamma), independent of every other draw, so whole
blocks of draws are computed at once as numpy uint64 arrays, bit-identical
to :class:`SplitMix64`. Per-sample seeds are derived by mixing a base seed
with the sample index, which makes batch generation order-independent.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .errors import ExhaustedTriesError, PreconditionViolatedError
from .graph import Graph, _arcs, _from_keys, _sources

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1 << 16  # draws per array: bounds the memory of one sampling step
_FIRST_TRIES = 4  # tries per seed in the first round of rejection sampling


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
    """Seeds as a uint64 array, reduced mod 2**64 as :class:`SplitMix64` does;
    a uint64 array is returned as it is."""
    if isinstance(seeds, np.ndarray):
        return seeds
    return np.array([s & _MASK for s in seeds], dtype=np.uint64)


_G, _M1, _M2, _S27, _S30, _S31 = map(np.uint64, (_GAMMA, 0xBF58476D1CE4E5B9,
                                                 0x94D049BB133111EB, 27, 30, 31))


def _draws(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Draws start + 1 .. start + count of each seed's stream, shape
    (len(seeds), count): what ``SplitMix64(seed).next_u64()`` returns on
    those calls. numpy wraps uint64 array arithmetic mod 2**64 silently."""
    z = seeds[:, None] + np.arange(start + 1, start + count + 1, dtype=np.uint64) * _G
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _below(p: float):
    """``SplitMix64.random() < p`` as a function of uint64 draws z: (z >> 11)
    2**-53 < p iff z < ceil(p 2**53) 2**11, a bound that no draw is below at
    p = 0 and that uint64 cannot hold at p = 1, where every draw is below."""
    if p == 1.0:
        return partial(np.greater_equal, np.uint64(_MASK))
    return partial(np.greater, np.uint64(math.ceil(p * 2.0 ** 53) << 11))


def _check_gnp(n: int, p: float) -> None:
    if n < 1:
        raise PreconditionViolatedError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise PreconditionViolatedError("p must be in [0, 1]")


def _graph_of(adj: np.ndarray) -> Graph:
    """The graph of a symmetric (n, n) boolean adjacency matrix with a zero
    diagonal: its flat nonzero indices are the keys i*n + j, already sorted."""
    return _from_keys(len(adj), np.flatnonzero(adj))


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): one uniform draw per unordered pair in (i < j) order."""
    _check_gnp(n, p)
    # Pair k of row i is draw offset(i) + k: rows start at these offsets.
    rows = np.arange(n)
    offset = rows * n - rows * (rows + 1) // 2
    total = n * (n - 1) // 2
    base, below = _seeds([seed]), _below(p)
    ends = [np.zeros((0, 2), dtype=np.int64)]
    for start in range(0, total, _BLOCK):
        k = start + np.flatnonzero(below(_draws(base, start, min(_BLOCK, total - start))[0]))
        i = np.searchsorted(offset, k, side="right") - 1
        ends.append(np.column_stack((i, k - offset[i] + i + 1)))
    return _from_keys(n, _arcs(n, *np.concatenate(ends).T))


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
    seed (ints, or a uint64 array), in seed order, as (seeds, n, n) boolean
    arrays of a few seeds each.

    Try t of a seed is G(n, p) drawn from seed ``mix(seed, t)``. Every
    pending seed draws a block of tries at once, ``_FIRST_TRIES`` (four) at
    first: at p = 1/2 one try is kept with probability 3/8 at n = 3, so four
    leave about one seed in seven to another round. A seed keeps its first
    connected non-regular try, and only the seeds still pending draw again,
    with twice the tries, so which try a seed keeps does not depend on the
    round sizes. One array holds at most ``_BLOCK`` draws or one try's pairs.
    """
    if n < 3:
        raise PreconditionViolatedError("n must be >= 3")
    _check_gnp(n, p)
    rows, cols = np.nonzero(~np.tri(n, dtype=bool))  # pairs i < j in row order
    per_block, below = max(1, _BLOCK // len(rows)), _below(p)
    for first in range(0, len(seeds), per_block):
        base = _seeds(seeds[first:first + per_block])
        out = np.zeros((len(base), n, n), dtype=bool)
        pending = np.arange(len(base))
        t, tries = 0, _FIRST_TRIES
        while len(pending):
            if t == max_tries:
                raise ExhaustedTriesError(max_tries)
            tries = max(1, min(tries, max_tries - t, per_block // len(pending)))
            bits = below(_draws(_draws(base[pending], t, tries).ravel(), 0, len(rows)))
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


_LOOP_MAX = 768  # below this many items a Python swap loop beats the array passes


def _shuffle(items, seed: int) -> np.ndarray:
    """``SplitMix64(seed).shuffle(items)`` as a new array, its draws taken as one array.

    Step k = m - 1, ..., 1 swaps slots k and j_k <= k (step 0 swaps slot 0
    with itself). Slot k is final after step k, and a step writes slot j_k
    with what slot k holds at that step. So slot k ends with what slot t
    holds at step t, t the least step after k with j_t = j_k (item j_k if
    there is none). Slot t holds at step t what slot t' holds at step t',
    t' the least step after t with j_t' = t (item t if there is none); as
    j_t < t, t' is the first step to pick t. The sorted pairs (j_k, k) give
    both steps, and pointer jumping resolves the rising chains of t'.
    """
    m, items = len(items), np.asarray(items)
    draws = _draws(_seeds([seed]), 0, max(m - 1, 0))[0] % np.arange(m, 1, -1, dtype=np.uint64)
    if m < _LOOP_MAX:
        out = items.tolist()
        for i, j in zip(range(m - 1, 0, -1), draws.tolist()):
            out[i], out[j] = out[j], out[i]
        return np.array(out, items.dtype)
    picks = np.zeros(m, np.int64)  # j_k by step k
    picks[:0:-1] = draws
    key = np.sort(picks << 32 | np.arange(m))  # m < 2**32
    pick, step = key >> 32, key & 0xFFFFFFFF
    succ = np.full(m, -1)  # the next step with the same pick
    succ[step[:-1]] = np.where(pick[1:] == pick[:-1], step[1:], -1)
    held = np.arange(m)  # t', then the item
    first = np.diff(pick, prepend=-1) != 0
    held[pick[first]] = step[first]
    while not np.array_equal(held, hop := held[held]):
        held = hop
    return items[np.where(succ >= 0, held[succ], picks)]


def configuration_rewire(g: Graph, seed: int) -> tuple[Graph, int]:
    """Stub-matching rewire of g's degree sequence, dropping collisions, and
    the number of matched pairs dropped.

    Self-loops and parallel edges produced by the matching are discarded,
    so rewired degrees may fall below the originals and the result may
    contain isolates.
    """
    stubs = _shuffle(_sources(g), seed)
    pairs = stubs[:len(stubs) // 2 * 2].reshape(-1, 2)
    keys = _arcs(g.n, *pairs[pairs[:, 0] != pairs[:, 1]].T)
    return _from_keys(g.n, keys), len(pairs) - len(keys) // 2

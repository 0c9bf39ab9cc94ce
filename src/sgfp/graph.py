"""Simple undirected graph with exact reciprocal-degree sums.

Node labels (strings or ints) are mapped to dense indices 0..n-1 in order
of first appearance; that index order is the canonical node order used by
every per-node sequence in this package (degrees, deltas, attributes).
Exact per-graph quantities come from one integer :class:`Kernel` (degrees,
L and y = L * delta), cached on the graph on first use; its moments,
r_{d,delta} and float delta are computed on first read, once each.

Every graph the package builds from edges (:func:`build_graph` and the
edge-list reader, through one label core; the random generators, rewiring,
isolate stripping) takes one path: the edges become sorted, distinct keys
i*n + j in numpy (:func:`_arcs`), and :func:`_from_keys` slices them into
neighbour tuples, which :meth:`Graph._trusted` takes as they are, as does the
growth step. The public ``Graph(adj, labels)`` trusts nothing: it sorts and
de-duplicates every neighbour list and checks every promise in O(n + m).
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from operator import eq, mul
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import IsolatedNodeError, PreconditionViolatedError, SelfLoopError, UnknownNodeError

NodeId = Hashable


class Graph:
    """Immutable simple undirected graph.

    No self-loops, no parallel edges; adjacency is symmetric and each
    neighbor tuple is sorted. ``duplicates_collapsed`` counts input edges
    that were dropped as duplicates during construction. Labels are unique.
    """

    __slots__ = ("n", "m", "adj", "labels", "duplicates_collapsed", "_index", "_kernel")

    def __init__(self, adj: Sequence[Iterable[int]], labels: Sequence[NodeId] | None = None,
                 duplicates_collapsed: int = 0):
        try:
            sets = [set(map(operator.index, a)) for a in adj]
        except TypeError:
            raise PreconditionViolatedError("neighbours must be integers") from None
        self.n = n = len(sets)
        self.labels: tuple[NodeId, ...] = tuple(range(n)) if labels is None else tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise PreconditionViolatedError("node labels must be unique")
        nodes = set(range(n))
        for i, s in enumerate(sets):
            if i in s:
                raise SelfLoopError(self.labels[i])
            if not s <= nodes:
                raise PreconditionViolatedError(f"node {i} has a neighbour outside 0..{n - 1}")
            if any(i not in sets[j] for j in s):
                raise PreconditionViolatedError(f"node {i} has a neighbour not adjacent to it")
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in sets)
        self.m = sum(map(len, sets)) // 2
        self.duplicates_collapsed = duplicates_collapsed
        self._kernel: Optional[Kernel] = None

    @classmethod
    def _trusted(cls, adj: tuple[tuple[int, ...], ...], labels: tuple[NodeId, ...], m: int,
                 duplicates_collapsed: int, index: Optional[dict]) -> Graph:
        """A graph of `adj` and `labels` taken as they are: symmetric, sorted,
        distinct neighbour tuples with no self-loop, m edges, unique labels.
        `index` maps each label to its node, or is None to build it on demand."""
        g = object.__new__(cls)
        g.adj, g.n, g.m, g.labels = adj, len(adj), m, labels
        g.duplicates_collapsed, g._kernel, g._index = duplicates_collapsed, None, index
        return g

    def index_of(self, label: NodeId) -> int:
        if self._index is None:
            self._index = dict(zip(self.labels, range(self.n)))
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.adj[i] if i < j]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj and self.labels == other.labels

    def __hash__(self):
        return hash((self.adj, self.labels))


def build_graph(edges: Iterable[tuple[NodeId, NodeId]],
                nodes: Sequence[NodeId] | None = None) -> Graph:
    """Build a simple graph from an edge list.

    Self-loops raise :class:`SelfLoopError`; duplicate edges are collapsed
    and counted. ``nodes`` optionally pins the canonical node order (and may
    include isolated nodes, while an edge to a label outside it raises
    :class:`UnknownNodeError`); otherwise order of first appearance is used.
    The first bad edge decides the error: a self-loop, else its first
    unknown endpoint.
    """
    edges = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:  # a string of two characters is no pair
        pairs = set(map(len, edges)) <= {2} and not {str, bytes} & set(map(type, edges))
    except TypeError:  # no len()
        pairs = False
    if not pairs:
        raise PreconditionViolatedError("every edge must be a pair of labels")
    return _label_graph(list(chain.from_iterable(edges)), nodes)


def _label_graph(flat: list, nodes: Sequence[NodeId] | None = None) -> Graph:
    """:func:`build_graph` of the edges flat[2k]--flat[2k + 1], for the edge-list reader too."""
    labels = () if nodes is None else tuple(dict.fromkeys(nodes))
    # One hash pass: a label first seen gets the next free index.
    index = defaultdict(count(len(labels)).__next__, zip(labels, count()))
    ends = list(map(index.__getitem__, flat))
    index.default_factory = None  # from here on an unknown label raises KeyError
    n = len(index) if nodes is None else len(labels)
    heads, tails = ends[::2], ends[1::2]
    if True in map(eq, heads, tails) or len(index) > n:  # a self-loop, or a label not in nodes
        k = next(k for k, (i, j) in enumerate(zip(heads, tails)) if i == j or max(i, j) >= n)
        u, v = flat[2 * k:2 * k + 2]
        raise (SelfLoopError(u) if heads[k] == tails[k] else
               UnknownNodeError(u if heads[k] >= n else v))
    keys = _arcs(n, heads, tails)
    return _from_keys(n, keys, tuple(index), len(heads) - len(keys) // 2, index)


def _arcs(n: int, heads, tails) -> np.ndarray:
    """The sorted, distinct directed keys i*n + j, in both orientations, of
    the edges heads[k]--tails[k] (two integer lists or arrays); n*n must
    stay below 2**63."""
    ends = np.array((heads, tails), dtype=np.int64)
    keys = np.concatenate(((-1,), ((n, 1), (1, n)) @ ends), axis=None)  # -1 sorts first
    keys.sort()
    return keys[1:][keys[1:] != keys[:-1]]


def _from_keys(n: int, keys: np.ndarray, labels: tuple[NodeId, ...] | None = None,
               duplicates_collapsed: int = 0, index: Optional[dict] = None) -> Graph:
    """The graph on n nodes whose directed edges are the sorted, distinct
    keys i*n + j of a symmetric relation with no self-loop (see :func:`_arcs`).
    `labels` default to 0..n-1."""
    src, dst = np.divmod(keys, max(n, 1))
    ends = np.bincount(src, minlength=n).cumsum().tolist()
    dst = tuple(dst.tolist())
    adj = tuple(map(dst.__getitem__, map(slice, [0, *ends[:-1]], ends)))
    return Graph._trusted(adj, tuple(range(n)) if labels is None else labels,
                          len(keys) // 2, duplicates_collapsed, index)


def degrees(g: Graph) -> tuple[int, ...]:
    """Degree sequence in canonical node order."""
    return tuple(map(len, g.adj))


def delta(g: Graph) -> tuple[Fraction, ...]:
    """Per-node sum of reciprocal neighbor degrees, as exact rationals.

    Raises :class:`IsolatedNodeError` if any node has degree 0.
    """
    k = kernel(g)
    if 0 in k.deg:
        raise IsolatedNodeError(g.labels[k.deg.index(0)])
    return tuple(Fraction(y, k.lcm) for y in k.y)


def exact_correlation(x: Sequence[int], y: Sequence[int], sx: int = 1, sy: int = 1) -> Optional[float]:
    """Pearson correlation of x/sx and y/sy for integer x, y; None at zero variance.

    0.0 and +-1.0 are decided exactly; otherwise each moment is one
    correctly rounded int/int division, as float(Fraction) would give.
    When a scaled moment leaves the float range (a large sy, say), the
    scale-free a / sqrt(b c) is evaluated in integers instead.
    """
    return _pearson(len(x), *_moments(x, y), sx, sy)


def _moments(x: Sequence[int], y: Sequence[int]) -> tuple[int, int, int]:
    """(a, b, c) = (n Sxy - Sx Sy, n Sxx - Sx^2, n Syy - Sy^2) of integer x, y."""
    n, sum_x, sum_y = len(x), sum(x), sum(y)
    return (n * sum(map(mul, x, y)) - sum_x * sum_y, n * sum(map(mul, x, x)) - sum_x * sum_x,
            n * sum(map(mul, y, y)) - sum_y * sum_y)


def _pearson(n: int, a: int, b: int, c: int, sx: int, sy: int) -> Optional[float]:
    """:func:`exact_correlation` from a = n Sxy - Sx Sy, b = n Sxx - Sx^2, c = n Syy - Sy^2."""
    if b == 0 or c == 0:
        return None
    if a == 0:
        return 0.0
    if a * a == b * c:
        return 1.0 if a > 0 else -1.0
    try:
        r = (a / (n * sx * sy)) / math.sqrt((b / (n * sx * sx)) * (c / (n * sy * sy)))
    except (OverflowError, ZeroDivisionError):
        r = 0.0
    if 0.0 < abs(r) < math.inf:
        return r
    # The root is taken on b c * 4**k with at least 256 bits.
    k = max(0, 257 - (b * c).bit_length()) // 2
    return (a << k) / math.isqrt((b * c) << (2 * k))


@dataclass(frozen=True)
class Kernel:
    """Exact per-graph integers, computed once by :func:`kernel`: ``lcm`` is L,
    the lcm of the nonzero degrees, and ``y`` = L * delta (0 at isolates).
    ``moments`` and ``r_ddelta``, over the non-isolated nodes, and ``delta``
    = y / L correctly rounded are computed on first read, once each.
    Equality and hashing compare the three fields only.
    """

    deg: tuple[int, ...]
    lcm: int
    y: tuple[int, ...]

    @cached_property
    def moments(self) -> tuple[int, int, int]:
        """:func:`_moments` of the degrees and y over the non-isolated nodes."""
        deg, y = self.deg, self.y
        if 0 in deg:
            deg, y = [d for d in deg if d], [v for v, d in zip(y, deg) if d]
        return _moments(deg, y)

    @cached_property
    def r_ddelta(self) -> Optional[float]:
        return _pearson(len(self.deg) - self.deg.count(0), *self.moments, 1, self.lcm)

    @cached_property
    def delta(self) -> tuple[float, ...]:
        return tuple(v / self.lcm for v in self.y)


def kernel(g: Graph) -> Kernel:
    """The graph's :class:`Kernel`, computed once and cached on the graph."""
    if g._kernel is None:
        deg = degrees(g)
        big_l = math.lcm(*set(deg).difference((0,)))
        w = [big_l // d if d else 0 for d in deg]
        g._kernel = Kernel(deg, big_l, tuple([sum(map(w.__getitem__, a)) for a in g.adj]))
    return g._kernel


def components(g: Graph) -> list[set[int]]:
    """Connected components as sets of dense node indices."""
    seen = [False] * g.n
    out: list[set[int]] = []
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


def is_connected(g: Graph) -> bool:
    return g.n > 0 and len(components(g)) == 1


def is_regular(g: Graph) -> bool:
    """True iff all degrees in the whole graph are equal."""
    deg = degrees(g)
    return len(set(deg)) <= 1

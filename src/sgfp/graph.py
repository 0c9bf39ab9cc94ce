"""Simple undirected graph with exact reciprocal-degree sums.

Node labels (strings or ints) are mapped to dense indices 0..n-1 in order
of first appearance; that index order is the canonical node order used by
every per-node sequence in this package (degrees, deltas, attributes).
Exact per-graph quantities come from one integer :class:`Kernel`, cached
on the graph on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Sequence

from .errors import IsolatedNodeError, PreconditionViolatedError, SelfLoopError, UnknownNodeError

NodeId = Hashable


class Graph:
    """Immutable simple undirected graph.

    No self-loops, no parallel edges; adjacency is symmetric and each
    neighbor tuple is sorted. ``duplicates_collapsed`` counts input edges
    that were dropped as duplicates during construction.
    """

    __slots__ = ("n", "m", "adj", "labels", "duplicates_collapsed", "_index", "_kernel")

    def __init__(self, adj: Sequence[Iterable[int]], labels: Sequence[NodeId] | None = None,
                 duplicates_collapsed: int = 0):
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(set(a))) for a in adj)
        self.n = len(self.adj)
        self.m = sum(len(a) for a in self.adj) // 2
        if labels is None:
            labels = tuple(range(self.n))
        self.labels: tuple[NodeId, ...] = tuple(labels)
        self.duplicates_collapsed = duplicates_collapsed
        self._kernel: Optional[Kernel] = None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.n:
            raise PreconditionViolatedError("node labels must be unique")

    def index_of(self, label: NodeId) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adj[i]

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
    include isolated nodes); otherwise order of first appearance is used.
    """
    labels: list[NodeId] = [] if nodes is None else list(dict.fromkeys(nodes))
    index = {lab: i for i, lab in enumerate(labels)}
    adj: list[set[int]] = [set() for _ in labels]

    def idx(lab: NodeId) -> int:
        if lab not in index:
            if nodes is not None:
                raise UnknownNodeError(lab)
            index[lab] = len(labels)
            labels.append(lab)
            adj.append(set())
        return index[lab]

    duplicates = 0
    for u, v in edges:
        if u == v:
            raise SelfLoopError(u)
        i, j = idx(u), idx(v)
        if j in adj[i]:
            duplicates += 1
        else:
            adj[i].add(j)
            adj[j].add(i)
    return Graph(adj, labels, duplicates_collapsed=duplicates)


def degrees(g: Graph) -> tuple[int, ...]:
    """Degree sequence in canonical node order."""
    return tuple(len(a) for a in g.adj)


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
    n = len(x)
    sum_x, sum_y = sum(x), sum(y)
    b = n * sum(v * v for v in x) - sum_x * sum_x
    c = n * sum(v * v for v in y) - sum_y * sum_y
    if b == 0 or c == 0:
        return None
    a = n * sum(u * v for u, v in zip(x, y)) - sum_x * sum_y
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
    """Exact per-graph quantities, computed once by :func:`kernel`.

    ``lcm`` is L, the lcm of the nonzero degrees; ``y`` = L * delta as
    integers (0 at isolates); ``delta`` = y / L correctly rounded;
    ``r_ddelta`` is taken over the non-isolated nodes.
    """

    deg: tuple[int, ...]
    lcm: int
    y: tuple[int, ...]
    delta: tuple[float, ...]
    r_ddelta: Optional[float]


def kernel(g: Graph) -> Kernel:
    """The graph's :class:`Kernel`, computed once and cached on the graph."""
    if g._kernel is None:
        deg = degrees(g)
        big_l = math.lcm(*{d for d in deg if d})
        w = [big_l // d if d else 0 for d in deg]
        g._kernel = _kernel_of(deg, big_l, [sum(w[k] for k in a) for a in g.adj])
    return g._kernel


def _kernel_of(deg: Sequence[int], big_l: int, y: Sequence[int]) -> Kernel:
    """The :class:`Kernel` of degrees `deg`, their lcm L and y = L * delta."""
    r = exact_correlation([d for d in deg if d], [v for v, d in zip(y, deg) if d], 1, big_l)
    return Kernel(tuple(deg), big_l, tuple(y), tuple(v / big_l for v in y), r)


def components(g: Graph) -> list[set[int]]:
    """Connected components as sets of dense node indices."""
    seen = [False] * g.n
    out: list[set[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
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

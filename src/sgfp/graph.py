"""Simple undirected graph with exact reciprocal-degree sums.

Node labels (strings or ints) are mapped to dense indices 0..n-1 in order
of first appearance; that index order is the canonical node order used by
every per-node sequence in this package (degrees, deltas, attributes).
Exact per-graph quantities come from one integer :class:`Kernel` (degrees,
L and y = L * delta), cached on the graph on first use; its moments,
r_{d,delta} and float delta are computed on first read, once each.

A graph is read-only int64 arrays in compressed sparse rows: node i's degree
``deg[i]`` and sorted neighbours ``nbr[ptr[i]:ptr[i + 1]]``. :func:`_from_keys` cuts
every graph from the sorted, distinct keys i*n + j of its arcs (:func:`_arcs`):
the label core of :func:`build_graph` and the edge-list reader, the random
generators, rewiring, isolate stripping, growth, copies and pickles; there is
no other constructor. ``adj`` is built on first read.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from operator import eq, mul
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import PreconditionViolatedError, SelfLoopError, UnknownNodeError

NodeId = Hashable


class Graph:
    """Immutable simple undirected graph.

    No self-loops, no parallel edges; adjacency is symmetric and each
    node's neighbours are sorted. ``duplicates_collapsed`` counts input edges
    that were dropped as duplicates during construction. Labels are unique.
    """

    def __reduce__(self):  # read-only arrays again, and no cache
        return _from_keys, (self.n, _sources(self) * self.n + self.nbr, self.labels,
                            self.duplicates_collapsed)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Each node's sorted neighbours as a tuple of Python ints, built on first read."""
        ends, nbr = self.ptr.tolist(), tuple(self.nbr.tolist())
        return tuple(map(nbr.__getitem__, map(slice, ends[:-1], ends[1:])))

    def index_of(self, label: NodeId) -> int:
        if self._index is None:
            self._index = dict(zip(self.labels, range(self.n)))
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def edges(self) -> list[tuple[int, int]]:
        """The edges as pairs (i, j) of Python ints with i < j, in (i, j) order."""
        src = _sources(self)
        upper = src < self.nbr
        return list(zip(src[upper].tolist(), self.nbr[upper].tolist()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.labels == other.labels
                and np.array_equal(self.ptr, other.ptr) and np.array_equal(self.nbr, other.nbr))

    def __hash__(self):
        return hash((self.labels, self.ptr.tobytes(), self.nbr.tobytes()))


def build_graph(edges: Iterable[tuple[NodeId, NodeId]],
                nodes: Sequence[NodeId] | None = None) -> Graph:
    """Build a simple graph from an edge list.

    Self-loops raise :class:`SelfLoopError`; duplicate edges are collapsed
    and counted. ``nodes`` optionally pins the canonical node order (its
    labels must be unique; it may include isolated nodes, while an edge to a
    label outside it raises :class:`UnknownNodeError`); otherwise order of
    first appearance is used.
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
    labels = () if nodes is None else tuple(nodes)
    # One hash pass: a label first seen gets the next free index.
    index = defaultdict(count(len(labels)).__next__, zip(labels, count()))
    if len(index) < len(labels):
        raise PreconditionViolatedError("node labels must be unique")
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
    """The graph on n nodes whose arcs are the sorted, distinct int64 keys i*n + j
    of a symmetric relation with no self-loop (see :func:`_arcs`). `labels`
    default to 0..n-1; an `index` of None is built on demand."""
    src, nbr = np.divmod(keys, max(n, 1))
    deg = np.bincount(src, minlength=n)
    ptr = np.concatenate(((0,), deg.cumsum()))
    ptr.flags.writeable = nbr.flags.writeable = deg.flags.writeable = False
    g = object.__new__(Graph)
    g.n, g.m, g.ptr, g.nbr, g.deg = n, len(keys) // 2, ptr, nbr, deg
    g.labels = tuple(range(n)) if labels is None else labels
    g.duplicates_collapsed, g._index, g._kernel = duplicates_collapsed, index, None
    return g


def _sources(g: Graph) -> np.ndarray:
    """The node each of g's arcs leaves: i repeated deg(i) times, in node order."""
    return np.repeat(np.arange(g.n), g.deg)


def _neighbour_sums(g: Graph, values: Sequence[int]) -> list[int]:
    """Per node, the sum of the integers `values` (one per node) over its
    neighbours, 0 at isolates: in int64 when n times their largest absolute
    value fits, else in Python ints."""
    top = max(map(abs, values), default=0)
    arcs = np.array(values, np.int64 if top * g.n < 2 ** 63 else object)[g.nbr]
    return _arc_sums(g, arcs).tolist()


def _arc_sums(g: Graph, arcs: np.ndarray) -> np.ndarray:
    """Per node, the sum of `arcs` (a value per arc, in CSR order) over its arcs; 0 at isolates."""
    # The 0 keeps every start in range; an isolate's empty segment gets its start's value.
    sums = np.add.reduceat(np.concatenate((arcs, (0,))), g.ptr[:-1])
    sums[g.deg == 0] = 0
    return sums


def _float_delta(g: Graph) -> np.ndarray:
    """delta in floats, with no big-int division: per node the float sum of
    the rounded 1 / d_j over its neighbours j (0 at isolates), so within
    1.01 u d_i delta_i of the exact delta_i for u = 2**-53 (Higham 2002,
    section 4.2). :attr:`Kernel.delta` is correctly rounded."""
    return _arc_sums(g, 1.0 / g.deg[g.nbr])


def degrees(g: Graph) -> tuple[int, ...]:
    """Degree sequence in canonical node order."""
    return tuple(g.deg.tolist())


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

    def active(self) -> tuple[list[int], list[int]]:
        """The degrees and y of the non-isolated nodes, in node order."""
        return list(compress(self.deg, self.deg)), list(compress(self.y, self.deg))

    @cached_property
    def moments(self) -> tuple[int, int, int]:
        """:func:`_moments` of the degrees and y over the non-isolated nodes."""
        return _moments(*self.active())

    @cached_property
    def r_ddelta(self) -> Optional[float]:
        return _pearson(len(self.deg) - self.deg.count(0), *self.moments, 1, self.lcm)

    @cached_property
    def delta(self) -> tuple[float, ...]:
        return tuple(v / self.lcm for v in self.y)


def kernel(g: Graph) -> Kernel:
    """The graph's :class:`Kernel`, computed once and cached on the graph."""
    if g._kernel is None:
        degs = g.deg.tolist()
        ds = list(set(degs))  # the distinct degrees
        big_l = math.lcm(*filter(None, ds))
        # L // d by degree d, 0 at d = 0: in int64 when every sum, at most n L, fits.
        w = np.zeros(max(ds, default=0) + 1, np.int64 if big_l * g.n < 2 ** 63 else object)
        w[ds] = [big_l // d if d else 0 for d in ds]
        g._kernel = Kernel(tuple(degs), big_l, tuple(_arc_sums(g, w[g.deg[g.nbr]]).tolist()))
    return g._kernel


def is_connected(g: Graph) -> bool:
    """Whether g has nodes and one component. Every root (at first, every
    node) hooks to the least root across an arc out of its tree, then every
    node jumps to its root, until no root moves (Shiloach and Vishkin, 1982)."""
    src, root = _sources(g), np.arange(g.n)
    while np.count_nonzero(root):  # until every node's root is node 0
        hooked = root.copy()
        np.minimum.at(hooked, root[src], root[g.nbr])
        if not np.count_nonzero(hooked != root):
            return False
        root = hooked
        while np.count_nonzero(root != (jumped := root[root])):
            root = jumped
    return g.n > 0


def is_regular(g: Graph) -> bool:
    """True iff all degrees in the whole graph are equal."""
    return len(set(g.deg.tolist())) <= 1

"""Worked example graphs and the correlation-to-1 growth construction.

The growth step inserts two degree-2/attribute-2 nodes by subdividing a
marked edge whose endpoints both carry attribute 2 and degree 2, and two
degree-3/attribute-3 nodes by replacing two marked disjoint edges among
attribute-3/degree-3 nodes with a connected pair of new nodes. Both gadgets
leave every pre-existing node's degree, attribute, and friend-attribute
mean untouched, so the (gap * node count) product is invariant. A step
edits the parent's sorted arc keys in place of the three replaced edges,
sorts them once and cuts the child with :func:`_from_keys`; the child
computes its kernel on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantBrokenError, PreconditionViolatedError, TooSmallError
from .graph import Graph, _from_keys, _pearson, build_graph

Edge = tuple[int, int]

# (attribute, degree) of the fig1 nodes A..H.
_FIG1_NODES = ((2, 2), (2, 2), (3, 3), (3, 3), (3, 3), (3, 3), (10, 1), (10, 1))


def example_graph_fig1() -> tuple[Graph, list[int]]:
    """8-node seed graph failing SGFP with gap -9/8 and correlation ~ -0.80."""
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("C", "E"),
             ("D", "F"), ("E", "F"), ("E", "G"), ("F", "H")]
    return build_graph(edges), [a for a, _ in _FIG1_NODES]


def example_graph_fig4() -> tuple[Graph, list[list[int]]]:
    """4-node anti-SGFP graph with three zero-correlation attribute samples."""
    g = build_graph([(1, 2), (2, 3), (2, 4), (3, 4)])
    samples = [[1, 1, 2, 0], [1, 1, 1, 0], [1, 1, 3, 0]]
    return g, samples


def star(n: int) -> Graph:
    """Star on n nodes: node 0 connected to every other node."""
    if n < 3:
        raise TooSmallError("star needs n >= 3")
    return build_graph([(0, i) for i in range(1, n)])


def knee(n: int) -> Graph:
    """Complete graph on n nodes with the (0, 1) edge removed."""
    if n < 3:
        raise TooSmallError("knee needs n >= 3")
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)
                        if (i, j) != (0, 1)])


def path(n: int) -> Graph:
    """Path on n nodes."""
    if n < 2:
        raise TooSmallError("path needs n >= 2")
    return build_graph([(i, i + 1) for i in range(n - 1)])


@dataclass(frozen=True)
class GrowthState:
    """Immutable snapshot of the growth construction.

    ``two_chain_edge`` joins two degree-2/attribute-2 nodes;
    ``three_edges`` are two disjoint edges among degree-3/attribute-3 nodes.
    """

    graph: Graph
    attrs: tuple[int, ...]
    two_chain_edge: Edge
    three_edges: tuple[Edge, Edge]
    k: int


def initial_growth_state() -> GrowthState:
    g, attrs = example_graph_fig1()
    # Indices: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7.
    return GrowthState(graph=g, attrs=tuple(attrs), two_chain_edge=(0, 1),
                       three_edges=((2, 3), (4, 5)), k=0)


def _check_marker(g: Graph, attrs, edge: Edge, want: int) -> None:
    u, v = edge
    start, end = g.ptr[u:u + 2].tolist()
    if v not in g.nbr[start:end].tolist():
        raise InvariantBrokenError(f"marker edge {edge} missing")
    for node in edge:
        if g.deg[node] != want or attrs[node] != want:
            raise InvariantBrokenError(
                f"marker node {node} is not a degree-{want}/attribute-{want} node")


def grow_step(state: GrowthState) -> GrowthState:
    """Add two triple-2 and two triple-3 nodes, labelled n..n+3; n grows by 4."""
    g = state.graph
    attrs = list(state.attrs)
    _check_marker(g, attrs, state.two_chain_edge, 2)
    for e in state.three_edges:
        _check_marker(g, attrs, e, 3)
    (e1, e2) = state.three_edges
    if set(e1) & set(e2):
        raise InvariantBrokenError("marked attribute-3 edges are not disjoint")

    n = g.n
    w1, w2 = n, n + 1        # triple-2 nodes
    p, q = n + 2, n + 3      # triple-3 nodes
    u, v = state.two_chain_edge
    (u1, v1), (u2, v2) = e1, e2
    if not {w1, w2, p, q}.isdisjoint(g.labels):
        raise InvariantBrokenError(f"labels {n}..{n + 3} of the new nodes are in use")

    # Replace u-v, u1-v1, u2-v2 by u-w2, u1-p, u2-q and add five edges: the
    # chain u - w2 - w1 - v and the pair u1, v1 - p - q - u2, v2. The parent's
    # arc keys, renumbered to i*(n + 4) + j, stay sorted; six new arcs take the
    # replaced ones' places, ten are appended, and one sort orders them all.
    keys = np.repeat(np.arange(n) * (n + 4), g.deg) + g.nbr
    arcs = (np.array(((u, v), (u1, v1), (u2, v2), (u, w2), (u1, p), (u2, q), (w2, w1), (w1, v),
                      (v1, p), (p, q), (q, v2))) @ ((n + 4, 1), (1, n + 4))).ravel()  # both ways
    at = np.searchsorted(keys, arcs[:6])
    if not np.array_equal(keys.take(at, mode="clip"), arcs[:6]):
        raise InvariantBrokenError("a replaced edge is not an edge of the parent")
    keys[at] = arcs[6:12]
    keys = np.concatenate((keys, arcs[12:]))
    keys.sort()
    child = _from_keys(n + 4, keys, g.labels + (w1, w2, p, q))
    return GrowthState(graph=child, attrs=tuple(attrs + [2, 2, 3, 3]), two_chain_edge=(w2, w1),
                       three_edges=((u1, p), (u2, q)), k=state.k + 1)


def growth_correlation(k: int) -> float:
    """Closed-form degree-attribute correlation after k growth steps.

    The moments are weighted sums, in exact integers, over the seed's nodes
    and the 2k triple-2 and 2k triple-3 nodes; :func:`_pearson` turns them
    into the correlation, as it does every other correlation of the package.
    """
    if k < 0:
        raise PreconditionViolatedError("k must be >= 0")
    nodes = [(a, d, 1) for a, d in _FIG1_NODES] + [(2, 2, 2 * k), (3, 3, 2 * k)]
    n = 8 + 4 * k
    a_sum = sum(w * a for a, _, w in nodes)
    d_sum = sum(w * d for _, d, w in nodes)
    return _pearson(n, n * sum(w * a * d for a, d, w in nodes) - a_sum * d_sum,
                    n * sum(w * a * a for a, _, w in nodes) - a_sum * a_sum,
                    n * sum(w * d * d for _, d, w in nodes) - d_sum * d_sum, 1, 1)

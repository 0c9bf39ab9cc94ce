"""Worked example graphs and the correlation-to-1 growth construction.

The growth step inserts two degree-2/attribute-2 nodes by subdividing a
marked edge whose endpoints both carry attribute 2 and degree 2, and two
degree-3/attribute-3 nodes by replacing two marked disjoint edges among
attribute-3/degree-3 nodes with a connected pair of new nodes. Both gadgets
leave every pre-existing node's degree, attribute, and friend-attribute
mean untouched, so the (gap * node count) product is invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantBrokenError, PreconditionViolatedError, TooSmallError
from .graph import Graph, build_graph

Edge = tuple[int, int]


def example_graph_fig1() -> tuple[Graph, list[int]]:
    """8-node seed graph failing SGFP with gap -9/8 and correlation ~ -0.80."""
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("C", "E"),
             ("D", "F"), ("E", "F"), ("E", "G"), ("F", "H")]
    g = build_graph(edges)
    attrs = [2, 2, 3, 3, 3, 3, 10, 10]
    return g, attrs


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
    return GrowthState(
        graph=g, attrs=tuple(attrs),
        two_chain_edge=(0, 1),
        three_edges=((2, 3), (4, 5)),
        k=0,
    )


def _check_marker(g: Graph, attrs, edge: Edge, want: int) -> None:
    u, v = edge
    if not g.has_edge(u, v):
        raise InvariantBrokenError(f"marker edge {edge} missing")
    for node in edge:
        if len(g.adj[node]) != want or attrs[node] != want:
            raise InvariantBrokenError(
                f"marker node {node} is not a degree-{want}/attribute-{want} node")


def grow_step(state: GrowthState) -> GrowthState:
    """Add two triple-2 and two triple-3 nodes; n grows by 4."""
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

    # Only the six marker endpoints change: subdivide u-v twice
    # (u - w2 - w1 - v) and replace u1-v1, u2-v2 by u1, v1 - p - q - u2, v2.
    adj = [list(a) for a in g.adj]
    for node, old, new in ((u, v, w2), (v, u, w1), (u1, v1, p), (v1, u1, p),
                           (u2, v2, q), (v2, u2, q)):
        adj[node][adj[node].index(old)] = new
    adj += [[w2, v], [u, w1], [u1, v1, q], [p, u2, v2]]
    return GrowthState(
        graph=Graph(adj, g.labels + (w1, w2, p, q)),
        attrs=tuple(attrs + [2, 2, 3, 3]),
        two_chain_edge=(w2, w1),
        three_edges=((u1, p), (u2, q)),
        k=state.k + 1,
    )


def growth_correlation(k: int) -> float:
    """Closed-form degree-attribute correlation after k growth steps.

    Evaluated in exact rationals up to the final square root.
    """
    if k < 0:
        raise PreconditionViolatedError("k must be >= 0")
    _, attrs = example_graph_fig1()
    deg = [2, 2, 3, 3, 3, 3, 1, 1]
    n = 8 + 4 * k
    a_mean = Fraction(sum(attrs) + 2 * k * 2 + 2 * k * 3, n)
    d_mean = Fraction(sum(deg) + 2 * k * 2 + 2 * k * 3, n)
    num = sum((a - a_mean) * (d - d_mean) for a, d in zip(attrs, deg))
    num += 2 * k * (2 - a_mean) * (2 - d_mean) + 2 * k * (3 - a_mean) * (3 - d_mean)
    var_a = sum((a - a_mean) ** 2 for a in attrs)
    var_a += 2 * k * (2 - a_mean) ** 2 + 2 * k * (3 - a_mean) ** 2
    var_d = sum((d - d_mean) ** 2 for d in deg)
    var_d += 2 * k * (2 - d_mean) ** 2 + 2 * k * (3 - d_mean) ** 2
    return float(num) / math.sqrt(float(var_a) * float(var_d))

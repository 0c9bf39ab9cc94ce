from fractions import Fraction

import pytest

from sgfp.errors import PreconditionViolatedError, SelfLoopError, UnknownNodeError
from sgfp.graph import (
    Graph,
    build_graph,
    degrees,
    is_connected,
    is_regular,
    kernel,
)
from sgfp.construct import example_graph_fig1, path, star

from conftest import components, fraction_delta


def test_build_path3():
    g = build_graph([(1, 2), (2, 3)])
    assert degrees(g) == (1, 2, 1)
    assert g.n == 3 and g.m == 2


def test_repr_names_the_node_and_edge_counts():
    assert repr(path(3)) == "Graph(n=3, m=2)"


def test_a_graph_is_built_from_edges_not_from_an_adjacency_list():
    with pytest.raises(TypeError):
        Graph([[1], [0]])


def test_duplicate_edges_collapse_with_count():
    g = build_graph([(1, 2), (2, 1)])
    assert g.m == 1
    assert g.duplicates_collapsed == 1


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph([(1, 1)])


def test_duplicate_labels_rejected():
    with pytest.raises(PreconditionViolatedError, match="node labels must be unique"):
        build_graph([("a", "b")], nodes=["a", "b", "a"])


def test_build_graph_refuses_an_edge_that_is_not_a_pair():
    for edges in ([(1, 2), (1, 2, 3)], [(1,)], [(1, 2), ()], [1, 2], [(1, 2), 3], ["ab", "cd"],
                  [(1, 2), b"ab"]):
        with pytest.raises(PreconditionViolatedError, match="pair"):
            build_graph(edges)


def test_build_graph_takes_a_generator_of_edges():
    g = build_graph((i, i + 1) for i in range(4))
    assert g == build_graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.m == 4 and g.duplicates_collapsed == 0


def test_pinned_nodes_dedupe_and_keep_isolates():
    g = build_graph([(2, 1), (1, 2), (2, 3)], nodes=[3, 2, 1, 4])
    assert g.labels == (3, 2, 1, 4)
    assert g.adj == ((1,), (0, 2), (1,), ())
    assert g.duplicates_collapsed == 1
    with pytest.raises(UnknownNodeError):
        build_graph([(1, 5)], nodes=[1, 2])


def test_canonical_order_is_first_appearance():
    g = build_graph([("c", "a"), ("a", "b")])
    assert g.labels == ("c", "a", "b")
    assert g.index_of("b") == 2
    with pytest.raises(UnknownNodeError):
        g.index_of("z")


def test_fig1_shape():
    g, _ = example_graph_fig1()
    assert degrees(g) == (2, 2, 3, 3, 3, 3, 1, 1)
    assert is_connected(g)
    assert not is_regular(g)


def test_degrees_star():
    assert degrees(star(5)) == (4, 1, 1, 1, 1)


def test_delta_path5():
    dl = fraction_delta(path(5))
    assert dl == (Fraction(1, 2), Fraction(3, 2), Fraction(1),
                  Fraction(3, 2), Fraction(1, 2))


def test_delta_star():
    for n in (3, 6, 12):
        dl = fraction_delta(star(n))
        assert dl[0] == n - 1
        assert all(v == Fraction(1, n - 1) for v in dl[1:])


def test_delta_fig4_graph():
    g = build_graph([(1, 2), (2, 3), (2, 4), (3, 4)])
    assert degrees(g) == (1, 3, 2, 2)
    assert fraction_delta(g) == (Fraction(1, 3), Fraction(2), Fraction(5, 6), Fraction(5, 6))


def test_delta_brute_force_oracle():
    # The kernel's y / L against conftest's definition, which shares no code with it.
    for g in (path(5), star(6), build_graph([(1, 2), (2, 3), (2, 4), (3, 4)])):
        k = kernel(g)
        assert tuple(Fraction(y, k.lcm) for y in k.y) == fraction_delta(g)


def test_components_and_regularity():
    g = build_graph([(0, 1), (2, 3)])
    assert not is_connected(g)
    assert components(g) == [{0, 1}, {2, 3}]
    assert is_regular(g)
    h = build_graph([(0, 1), (1, 2), (3, 4)])
    assert not is_regular(h)


def test_adjacency_symmetry_fig1():
    g, _ = example_graph_fig1()
    for i in range(g.n):
        for j in g.adj[i]:
            assert i in g.adj[j]


def test_delta_sum_equals_node_count():
    # For any graph without isolates the reciprocal-degree sums add to n.
    from sgfp.randgen import gnp, mix

    checked = 0
    for i in range(40):
        g = gnp(8, 0.5, mix(123, i))
        if 0 in degrees(g):
            continue
        assert sum(fraction_delta(g)) == g.n
        checked += 1
    assert checked > 10


def test_graph_immutability_surface():
    g = build_graph([(0, 1), (1, 2)])
    assert isinstance(g.adj, tuple)
    assert all(isinstance(a, tuple) for a in g.adj)

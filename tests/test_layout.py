"""The array layout: every whole-graph pass against its Python reference,
the passes that must leave the neighbour tuples unbuilt, and what outside
readers rely on (edge order and types, equality, hashing)."""

import copy
import itertools
import pickle

import numpy as np
import pytest

from sgfp import graph
from sgfp.classify import classify, threshold_estimate
from sgfp.construct import grow_step, initial_growth_state, path
from sgfp.experiments import grow_table, rewire_experiment, strip_isolates
from sgfp.graph import Graph, Kernel, build_graph, degrees, is_connected, kernel
from sgfp.lp import max_failing_correlation
from sgfp.randgen import SplitMix64, configuration_rewire, gnp, mix, sample_connected_nonregular

from conftest import (edge_list_from_string, every_signature, preferential_attachment,
                      reference_gnp, reference_is_connected, reference_kernel, signature_graphs)


def check_against_reference(g):
    assert kernel(g) == reference_kernel(g)
    assert is_connected(g) == reference_is_connected(g)
    assert degrees(g) == tuple(map(len, g.adj))


@pytest.mark.parametrize("n", range(3, 8))
def test_every_census_signature_matches_the_references(n):
    graphs = signature_graphs(n)
    assert len(graphs) == len(every_signature(n))
    for g, (deg, big_l, y) in zip(graphs, every_signature(n)):
        check_against_reference(g)
        assert kernel(g) == Kernel(tuple(deg), big_l, tuple(y))


@pytest.mark.parametrize("n", range(0, 6))
def test_every_labelled_graph_on_up_to_five_nodes_matches_the_references(n):
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if code >> k & 1]
        check_against_reference(build_graph(edges, nodes=range(n)))


SMALL = {
    "empty": build_graph([]), "one node": build_graph([], nodes=[0]),
    "two isolates": build_graph([], nodes=range(2)),
    "last isolated": build_graph([(0, 1)], nodes=range(3)),
    "middle isolated": build_graph([(0, 2)], nodes=range(3)),
    "ends isolated": build_graph([(1, 2)], nodes=range(4)), "two edges": build_graph([(0, 1), (2, 3)]),
    "path and edge": build_graph([(0, 1), (1, 2), (3, 4)]), "path(2)": path(2), "path(6)": path(6),
}


@pytest.mark.parametrize("name", SMALL)
def test_small_and_isolated_cases_match_the_references(name):
    check_against_reference(SMALL[name])


def test_isolates_sum_to_zero_wherever_they_sit():
    # reduceat gives an empty segment the value at its start; an isolate's y is 0.
    assert kernel(build_graph([(0, 2)], nodes=range(3))).y == (1, 0, 1)
    assert kernel(build_graph([(0, 1)], nodes=range(3))).y == (1, 1, 0)
    assert kernel(build_graph([(1, 2)], nodes=range(3))).y == (0, 1, 1)


def test_rewired_graphs_match_the_references():
    seen_isolates = 0
    for seed in range(20):
        g = preferential_attachment(60, seed=seed)
        rewired, _ = configuration_rewire(g, mix(5, seed))
        seen_isolates += not all(degrees(rewired))
        for h in (g, rewired, strip_isolates(rewired)):
            check_against_reference(h)
    assert seen_isolates


def test_a_randomly_labelled_long_path_matches_the_references():
    n = 10_000
    order = list(range(n))
    SplitMix64(3).shuffle(order)
    edges = list(zip(order, order[1:]))
    g = build_graph(edges, nodes=range(n))
    cut = build_graph(edges[:n // 2] + edges[n // 2 + 1:], nodes=range(n))
    for h in (g, cut):
        check_against_reference(h)
    assert is_connected(g) and not is_connected(cut)


def test_large_graphs_keep_exact_kernels_beyond_int64():
    g = preferential_attachment(10_000, seed=7)
    assert kernel(g).lcm > 2 ** 63
    check_against_reference(g)


@pytest.mark.parametrize("n, dtype", [(1726, np.int64), (1727, object)])
def test_kernels_on_both_sides_of_the_int64_switch_match_the_reference(monkeypatch, n, dtype):
    # A half graph (a_i joined to b_1..b_i) has the degrees 1..40, so L =
    # lcm(1..40), and isolates make n nodes: L * n < 2**63 just at n = 1726.
    edges = [(f"a{i}", f"b{j}") for i in range(1, 41) for j in range(1, i + 1)]
    g = build_graph(edges, nodes=[*dict.fromkeys(v for e in edges for v in e), *range(n - 80)])
    dtypes, real = [], graph._arc_sums
    monkeypatch.setattr(graph, "_arc_sums",
                        lambda h, arcs: dtypes.append(arcs.dtype) or real(h, arcs))
    check_against_reference(g)
    assert g.n == n and (kernel(g).lcm * n < 2 ** 63) == (dtype is np.int64)
    assert dtypes == [np.dtype(dtype)]


def test_hot_paths_leave_the_neighbour_tuples_unbuilt(monkeypatch):
    read = []
    monkeypatch.setattr(Graph, "adj", property(lambda g: read.append(g)))
    g = preferential_attachment(200, seed=2)  # large enough for the LP's float filters
    classify(g)
    threshold_estimate(g)
    max_failing_correlation(g)
    rewire_experiment([("g", g), ("p", path(6))], seed=0)
    grow_table(20)
    assert read == [] and "adj" not in vars(g)


def test_neighbour_tuples_are_built_once_as_python_ints():
    g = gnp(30, 0.3, 4)
    assert "adj" not in vars(g)
    adj = g.adj
    assert g.adj is adj and vars(g)["adj"] is adj
    assert isinstance(adj, tuple) and all(isinstance(a, tuple) for a in adj)
    assert all(type(j) is int for a in adj for j in a)
    want = [[] for _ in range(g.n)]
    for i, j in g.edges():
        want[i].append(j)
        want[j].append(i)
    assert adj == tuple(tuple(sorted(a)) for a in want)


@pytest.mark.parametrize("make", [lambda s: gnp(40, 0.2, s), lambda s: gnp(7, 0.5, s),
                                  lambda s: sample_connected_nonregular(9, 0.4, s)])
def test_edges_are_python_int_pairs_in_order(make):
    for seed in range(5):
        g = make(mix(11, seed))
        edges = g.edges()
        assert edges == [(i, j) for i in range(g.n) for j in g.adj[i] if i < j]
        assert all(type(i) is int and type(j) is int for i, j in edges)
        assert edges == sorted(edges) and len(edges) == g.m


def test_gnp_edges_come_in_draw_order():
    for seed in range(5):
        assert gnp(12, 0.5, seed).edges() == reference_gnp(12, 0.5, seed).edges()
        rng = SplitMix64(seed)
        drawn = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.5]
        assert gnp(12, 0.5, seed).edges() == drawn


def test_equality_and_hashing_follow_edges_and_labels():
    g = gnp(10, 0.5, 99)
    same = build_graph(g.edges(), nodes=g.labels)
    assert g == gnp(10, 0.5, 99) == same and hash(g) == hash(same)
    assert len({g, same, gnp(10, 0.5, 99)}) == 1
    assert g != gnp(10, 0.5, 100)
    assert g != build_graph([(f"v{i}", f"v{j}") for i, j in g.edges()],
                            nodes=[f"v{i}" for i in range(g.n)])
    assert build_graph([(0, 1)], nodes=[0, 1, 2]) != build_graph([(0, 1)], nodes=[0, 1])
    assert g != g.adj
    copied = pickle.loads(pickle.dumps(g))
    assert copied == g and hash(copied) == hash(g) and copied.adj == g.adj


def test_arrays_are_read_only():
    g = path(4)
    assert g.ptr.dtype == g.nbr.dtype == np.int64
    assert g.ptr.tolist() == [0, 1, 3, 5, 6] and g.nbr.tolist() == [1, 0, 2, 1, 3, 2]
    with pytest.raises(ValueError):
        g.nbr[0] = 3
    with pytest.raises(ValueError):
        g.ptr[1] = 0


# One graph per construction path; those marked with isolates must have some.
CONSTRUCTIONS = {
    "build_graph": lambda: build_graph([(0, 1), (1, 2), (3, 4)], nodes=range(6)),
    "read_edge_list": lambda: edge_list_from_string("a b\nb c\n# c d\nc a\nc d\n"),
    "gnp": lambda: gnp(30, 0.1, 5),
    "sample_connected_nonregular": lambda: sample_connected_nonregular(9, 0.5, 3),
    "configuration_rewire": lambda: configuration_rewire(preferential_attachment(60, 1), 11)[0],
    "strip_isolates": lambda: strip_isolates(gnp(30, 0.1, 5)),
    "grow_step": lambda: grow_step(grow_step(initial_growth_state())).graph,
    "n = 0": lambda: build_graph([], nodes=[]),
    "n = 0, from edges": lambda: build_graph([]),
    "n = 1": lambda: build_graph([], nodes=[0]),
    "n = 1, gnp": lambda: gnp(1, 0.5, 0),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_degree_array_is_the_read_only_difference_of_ptr(name):
    g = CONSTRUCTIONS[name]()
    assert g.deg.dtype == np.int64 and g.deg.shape == (g.n,)
    assert np.array_equal(g.deg, np.diff(g.ptr))
    assert degrees(g) == tuple(map(len, g.adj))
    assert not g.deg.flags.writeable
    if g.n:
        with pytest.raises(ValueError):
            g.deg[0] = 5
    copied = pickle.loads(pickle.dumps(g))
    assert copied == g and np.array_equal(copied.deg, g.deg)
    assert not (copied.ptr.flags.writeable or copied.nbr.flags.writeable
                or copied.deg.flags.writeable)


COPIES = {"copy.copy": copy.copy, "copy.deepcopy": copy.deepcopy,
          "pickle": lambda g: pickle.loads(pickle.dumps(g))}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_copies_and_pickles_are_rebuilt_read_only_and_uncached(name, how):
    g = CONSTRUCTIONS[name]()
    # Fill every cache that a copy of the instance dict would carry.
    kernel(g)
    assert g.adj is g.adj
    if g.n:
        g.index_of(g.labels[-1])
    copied = COPIES[how](g)
    assert copied is not g
    assert copied == g and hash(copied) == hash(g)
    assert (copied.n, copied.m, copied.duplicates_collapsed) == (g.n, g.m, g.duplicates_collapsed)
    assert np.array_equal(copied.deg, g.deg)
    for array in (copied.ptr, copied.nbr, copied.deg):
        assert array.dtype == np.int64 and not array.flags.writeable
        if len(array):
            with pytest.raises(ValueError):
                array[0] = 5
    assert copied._kernel is None and copied._index is None and "adj" not in vars(copied)
    assert copied.adj == g.adj and kernel(copied) == kernel(g)


def test_the_construction_paths_cover_isolates():
    for name in ("build_graph", "gnp", "configuration_rewire", "n = 1"):
        assert not CONSTRUCTIONS[name]().deg.all(), name

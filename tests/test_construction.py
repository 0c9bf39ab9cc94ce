"""Differential tests: the one numpy construction path against its references.

The reference functions below are the per-edge implementations the sorted
key path replaced (`build_graph`'s closure loop, the rewiring `seen`-set
loop, `randgen`'s argsort-and-split builder and the dict remap of
`strip_isolates`). They are kept here only, as the oracle, and build no
`Graph`: each returns the plain tuple (adj, labels, m, duplicates). Every
graph must be equal to it field by field, and every error must have the
same class and label (or message).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfp.errors import PreconditionViolatedError, SelfLoopError, UnknownNodeError
from sgfp.experiments import strip_isolates
from sgfp.graph import Graph, build_graph
from sgfp.randgen import SplitMix64, _graph_of, _sample_blocks, configuration_rewire, gnp, mix

from conftest import edge_list_from_string, preferential_attachment, random_graphs


def ref_build_graph(edges, nodes=None):
    labels = [] if nodes is None else list(nodes)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) < len(labels):
        raise PreconditionViolatedError("node labels must be unique")
    adj = [set() for _ in labels]

    def idx(lab):
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
    return _adj_tuple(adj), tuple(labels), sum(map(len, adj)) // 2, duplicates


def _adj_tuple(adj):
    return tuple(tuple(sorted(a)) for a in adj)


def ref_rewire(g, seed):
    stubs = []
    for i, neigh in enumerate(g.adj):
        stubs.extend([i] * len(neigh))
    SplitMix64(seed).shuffle(stubs)
    edges, seen, dropped = [], set(), 0
    for k in range(0, len(stubs) - 1, 2):
        u, v = stubs[k], stubs[k + 1]
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            dropped += 1
            continue
        seen.add(key)
        edges.append(key)
    return ref_build_graph(edges, nodes=list(range(g.n))), dropped


def ref_graph(n, u, v):
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(src, kind="stable")
    bounds = np.cumsum(np.bincount(src, minlength=n))[:-1]
    adj = [a.tolist() for a in np.split(dst[order], bounds)]
    return _adj_tuple(adj), tuple(range(n)), len(u), 0


def ref_gnp(n, p, seed):
    rng = SplitMix64(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    u = np.array([i for i, _ in pairs], dtype=np.int64)
    v = np.array([j for _, j in pairs], dtype=np.int64)
    return ref_graph(n, u, v)


def ref_strip_isolates(g):
    keep = [i for i in range(g.n) if g.adj[i]]
    remap = {old: new for new, old in enumerate(keep)}
    adj = [[remap[v] for v in g.adj[i]] for i in keep]
    return _adj_tuple(adj), tuple(g.labels[i] for i in keep), sum(map(len, adj)) // 2, 0


def assert_same(got, want):
    adj, labels, m, duplicates = want
    assert (got.adj, got.labels, got.n, got.m, got.duplicates_collapsed) == \
        (adj, labels, len(labels), m, duplicates)
    assert [type(x) for x in got.labels] == [type(x) for x in labels]
    assert all(type(j) is int for a in got.adj for j in a)
    assert all(got.index_of(lab) == i for i, lab in enumerate(got.labels))


def outcome(build, *args):
    try:
        return build(*args)
    except (SelfLoopError, UnknownNodeError) as exc:
        return type(exc), exc.node
    except PreconditionViolatedError as exc:
        return type(exc), exc.condition


labels = st.one_of(st.integers(-3, 6), st.sampled_from(["a", "b", "c", "1", "2"]))
edge_lists = st.lists(st.tuples(labels, labels), max_size=25).flatmap(
    lambda edges: st.lists(st.sampled_from(edges), max_size=10).map(
        lambda extra: edges + [(v, u) for u, v in extra] + extra) if edges else st.just(edges))


@settings(max_examples=300, deadline=None)
@given(edge_lists, st.none() | st.lists(labels, max_size=12, unique=True)
       | st.lists(labels, max_size=12))
def test_build_graph_matches_reference(edges, nodes):
    got, want = outcome(build_graph, edges, nodes), outcome(ref_build_graph, edges, nodes)
    if isinstance(got, Graph):
        assert_same(got, want)
    else:
        assert got == want


def test_build_graph_errors_follow_input_order():
    assert outcome(build_graph, [(1, 2), (3, 3), ("x", 1)], [1, 2]) == (SelfLoopError, 3)
    assert outcome(build_graph, [(1, 2), (1, "x"), (4, 4)], [1, 2]) == (UnknownNodeError, "x")
    assert outcome(build_graph, [("y", "x")], [1]) == (UnknownNodeError, "y")
    assert outcome(build_graph, [("x", "x")], [1]) == (SelfLoopError, "x")


@pytest.mark.parametrize("nodes", [["a", "b", "a"], [1, 1], (0, 1, 2, 1.0)])
def test_repeated_node_labels_are_refused_before_any_edge(nodes):
    # The first edge is a self-loop or names a repeated label; the labels decide.
    edges = [(nodes[1], nodes[-1]), (nodes[0], nodes[1])]
    for build in (build_graph, ref_build_graph):
        assert outcome(build, edges, nodes) == (PreconditionViolatedError,
                                                "node labels must be unique")


def test_empty_edge_list():
    for got in (build_graph([]), build_graph([], nodes=[]), edge_list_from_string("")):
        assert_same(got, ref_build_graph([]))
        assert got.n == 0 and got.adj == ()
    assert_same(build_graph([], nodes=["a", 1]), ref_build_graph([], nodes=["a", 1]))


def test_rewire_matches_reference_for_200_seeds():
    graphs = [preferential_attachment(60, 3), *random_graphs(17, 3, (4, 12))]
    for seed in range(200):
        g = graphs[seed % len(graphs)]
        (got, dropped), (want, want_dropped) = (configuration_rewire(g, seed),
                                               ref_rewire(g, seed))
        assert_same(got, want)
        assert dropped == want_dropped


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_gnp_one_node(p):
    assert_same(gnp(1, p, 5), ref_gnp(1, p, 5))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 64 - 1))
def test_gnp_matches_reference(n, p, seed):
    assert_same(gnp(n, p, seed), ref_gnp(n, p, seed))


def test_sampled_graphs_match_reference():
    for n in (3, 6, 11):
        for adj in next(_sample_blocks(n, 0.4, [mix(5, i) for i in range(20)])):
            u, v = np.nonzero(np.triu(adj, 1))
            assert_same(_graph_of(adj), ref_graph(n, u, v))


def test_strip_isolates_matches_reference():
    for seed in range(40):
        g = gnp(12, 0.15, seed)
        assert_same(strip_isolates(g), ref_strip_isolates(g))

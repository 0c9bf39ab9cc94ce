import dataclasses
import math
from fractions import Fraction

import pytest

from sgfp import construct, experiments
from sgfp.classify import ANTI, PRO, classify
from sgfp.construct import (
    example_graph_fig1,
    example_graph_fig4,
    grow_step,
    growth_correlation,
    initial_growth_state,
    knee,
    path,
    star,
)
from sgfp.errors import InvariantBrokenError, PreconditionViolatedError, TooSmallError
from sgfp.experiments import grow_table
from sgfp.graph import build_graph, degrees, kernel
from sgfp.metrics import correlation, gap_report, singular_gap


def test_fig1_friend_attribute_multisets():
    g, attrs = example_graph_fig1()
    # Term-by-term: two deg-2 nodes see {2,3}, two deg-3 nodes see {2,3,3},
    # two deg-3 nodes see {3,3,10}, two deg-1 nodes see {3}.
    multisets = sorted(
        tuple(sorted(attrs[j] for j in g.adj[i])) for i in range(g.n)
    )
    assert multisets == sorted([
        (2, 3), (2, 3), (2, 3, 3), (2, 3, 3),
        (3, 3, 10), (3, 3, 10), (3,), (3,),
    ])


def test_fig1_values():
    g, attrs = example_graph_fig1()
    assert singular_gap(g, attrs) == Fraction(-9, 8)
    r = correlation(list(degrees(g)), attrs)
    assert abs(r - (-17 / math.sqrt(451))) < 1e-12


def test_fig4_values():
    g, samples = example_graph_fig4()
    assert degrees(g) == (1, 3, 2, 2)
    d = list(degrees(g))
    gaps = [singular_gap(g, s) for s in samples]
    assert [correlation(d, s) for s in samples] == [0.0, 0.0, 0.0]
    assert gaps == [0, Fraction(1, 24), Fraction(-1, 24)]


def test_standard_shapes():
    assert degrees(star(4)) == (3, 1, 1, 1)
    assert degrees(path(3)) == (1, 2, 1)
    k = knee(4)
    assert sorted(degrees(k)) == [2, 2, 3, 3]
    assert classify(knee(4)).kind == PRO
    assert classify(path(4)).kind == PRO
    assert classify(path(5)).kind == ANTI


def test_too_small():
    with pytest.raises(TooSmallError):
        star(2)
    with pytest.raises(TooSmallError):
        knee(2)
    with pytest.raises(TooSmallError):
        path(1)


def test_path3_zero_gap_example():
    assert singular_gap(path(3), [1, 2, 3]) == 0


def test_grow_step_preserves_existing_nodes():
    state = initial_growth_state()
    for _ in range(5):
        g0, a0 = state.graph, list(state.attrs)
        d0 = degrees(g0)
        s0 = gap_report(g0, a0).s
        nxt = grow_step(state)
        g1, a1 = nxt.graph, list(nxt.attrs)
        assert g1.n == g0.n + 4
        assert degrees(g1)[:g0.n] == d0
        assert a1[:g0.n] == a0
        assert gap_report(g1, a1).s[:g0.n] == s0
        state = nxt


def _grow_by_rebuilding(state):
    """Reference step: rebuild the grown graph from its edge list."""
    g, n = state.graph, state.graph.n
    w1, w2, p, q = n, n + 1, n + 2, n + 3
    (u, v), ((u1, v1), (u2, v2)) = state.two_chain_edge, state.three_edges
    removed = {tuple(sorted(e)) for e in (state.two_chain_edge, *state.three_edges)}
    edges = [e for e in g.edges() if e not in removed]
    edges += [(u, w2), (w2, w1), (w1, v), (u1, p), (v1, p), (p, q), (q, u2), (q, v2)]
    return build_graph(edges, nodes=range(n + 4)).adj


def test_grow_step_matches_rebuilt_graph():
    state = initial_growth_state()
    for _ in range(12):
        nxt = grow_step(state)
        assert nxt.graph.adj == _grow_by_rebuilding(state)
        n = state.graph.n
        assert nxt.graph.labels == state.graph.labels + (n, n + 1, n + 2, n + 3)
        state = nxt


def test_new_nodes_have_matching_second_order():
    state = grow_step(initial_growth_state())
    g, a = state.graph, list(state.attrs)
    s = gap_report(g, a).s
    for i in range(8, g.n):
        assert s[i] == a[i]


def test_gap_times_n_is_constant():
    state = initial_growth_state()
    for _ in range(20):
        state = grow_step(state)
        gap = singular_gap(state.graph, list(state.attrs))
        assert gap * (8 + 4 * state.k) == -9


def test_growth_correlation_matches_measured():
    state = initial_growth_state()
    for _ in range(30):
        measured = correlation(list(degrees(state.graph)), list(state.attrs))
        assert abs(measured - growth_correlation(state.k)) < 1e-12
        state = grow_step(state)


def ref_growth_correlation(k):
    """The closed form in exact rationals: the integer form's reference."""
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


def test_growth_correlation_matches_rational_reference():
    for k in range(10**4 + 1):
        assert growth_correlation(k) == ref_growth_correlation(k), k
    for k in (10**5, 10**6, 10**9, 10**18):
        assert growth_correlation(k) == ref_growth_correlation(k), k


def old_growth_correlation(k):
    """The growth curve as it was before it shared graph._pearson: n**2 times
    each population moment, then one division by n**2 per moment."""
    nodes = [(2, 2, 1), (2, 2, 1), (3, 3, 1), (3, 3, 1), (3, 3, 1), (3, 3, 1), (10, 1, 1),
             (10, 1, 1), (2, 2, 2 * k), (3, 3, 2 * k)]
    n = 8 + 4 * k
    a_sum = sum(w * a for a, _, w in nodes)
    d_sum = sum(w * d for _, d, w in nodes)
    dev = [(n * a - a_sum, n * d - d_sum, w) for a, d, w in nodes]
    num = sum(w * x * z for x, z, w in dev)
    var_a = sum(w * x * x for x, _, w in dev)
    var_d = sum(w * z * z for _, z, w in dev)
    nn = n * n
    return (num / nn) / math.sqrt((var_a / nn) * (var_d / nn))


def test_growth_correlation_is_bit_identical_to_the_old_formula():
    for k in [*range(2001), 10**6, 10**9]:
        assert growth_correlation(k) == old_growth_correlation(k), k


def test_growth_correlation_limits():
    assert abs(growth_correlation(0) - (-17 / math.sqrt(451))) < 1e-12
    assert growth_correlation(10**6) > 0.999
    values = [growth_correlation(k) for k in range(0, 200, 10)]
    assert values == sorted(values)


def test_negative_growth_steps_rejected():
    with pytest.raises(PreconditionViolatedError):
        growth_correlation(-1)
    with pytest.raises(PreconditionViolatedError):
        grow_table(-1)


def test_growth_crosses_099():
    lo, hi = 0, 10**6
    assert growth_correlation(hi) > 0.99
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if growth_correlation(mid) > 0.99:
            hi = mid
        else:
            lo = mid
    scan = next(k for k in range(hi - 5, hi + 1) if growth_correlation(k) > 0.99)
    assert scan == hi
    assert growth_correlation(hi - 1) <= 0.99


def test_corrupted_marker_raises():
    state = initial_growth_state()
    broken = state.__class__(
        graph=state.graph, attrs=state.attrs,
        two_chain_edge=(6, 4),  # a degree-1/attribute-10 node: invalid
        three_edges=state.three_edges, k=state.k,
    )
    with pytest.raises(InvariantBrokenError):
        grow_step(broken)
    for markers, message in ((dict(two_chain_edge=(0, 3)), r"marker edge \(0, 3\) missing"),
                             (dict(three_edges=((2, 3), (3, 5))), "not disjoint")):
        # A-D is no edge; C-D and D-F share D.
        with pytest.raises(InvariantBrokenError, match=message):
            grow_step(dataclasses.replace(state, **markers))


def test_grow_step_refuses_a_replaced_edge_that_is_not_an_arc(monkeypatch):
    # With the marker checks off, the step's own look-up of the three
    # replaced edges among the parent's arcs still refuses A-D.
    monkeypatch.setattr(construct, "_check_marker", lambda *args: None)
    state = dataclasses.replace(initial_growth_state(), two_chain_edge=(0, 3))
    with pytest.raises(InvariantBrokenError, match="not an edge of the parent"):
        grow_step(state)


def _rebuilt(g, labels):
    """g's edges built again from its edge list, sorted, de-duplicated and
    checked, on the given labels (one per node, in node order)."""
    return build_graph([(labels[i], labels[j]) for i, j in g.edges()], nodes=labels)


def test_grow_step_rejects_labels_of_the_new_nodes_in_use():
    state = initial_growth_state()
    g = state.graph
    relabelled = _rebuilt(g, g.labels[:-1] + (g.n + 2,))
    with pytest.raises(InvariantBrokenError, match="in use"):
        grow_step(dataclasses.replace(state, graph=relabelled))


def test_grown_graph_is_in_normal_form():
    state = initial_growth_state()
    for _ in range(150):
        state = grow_step(state)
        g = state.graph
        rebuilt = _rebuilt(g, g.labels)  # equal only if its arcs are sorted, symmetric, distinct
        assert g == rebuilt, state.k
        assert 2 * g.m == sum(degrees(g)) and g.m == rebuilt.m
        assert g._kernel is None  # computed on demand, like any other graph's
        assert kernel(g) == kernel(rebuilt)
        assert repr(kernel(g)) == repr(kernel(rebuilt))  # bit-equal floats, signed zeros too
        assert g.index_of(g.n - 1) == g.n - 1


def _fresh_rows(steps):
    """grow_table's rows from graphs rebuilt from edge lists, each with its own kernel."""
    state, rows = initial_growth_state(), []
    while True:
        g = _rebuilt(state.graph, state.graph.labels)
        attrs = list(state.attrs)
        rows.append((state.k, g.n, float(singular_gap(g, attrs)), correlation(kernel(g).deg, attrs)))
        if state.k == steps:
            return rows
        adj = _grow_by_rebuilding(state)
        state = grow_step(state)
        assert state.graph.adj == adj


@pytest.mark.parametrize("steps", [0, 1, 5, 20, 100, 300])
def test_grow_table_matches_fresh_kernels(steps):
    assert grow_table(steps) == _fresh_rows(steps)


def test_wrong_carried_kernel_fails_the_gap_cross_check():
    state = grow_step(initial_growth_state())
    k = kernel(state.graph)
    y = list(k.y)
    y[0] += 1
    state.graph._kernel = dataclasses.replace(k, y=tuple(y))
    with pytest.raises(InvariantBrokenError):
        singular_gap(state.graph, list(state.attrs))


def test_grow_table_cross_checks_both_gap_forms_on_every_step(monkeypatch):
    def step_with_a_wrong_kernel_at_k3(state):
        child = grow_step(state)
        if child.k == 3:
            k = kernel(child.graph)
            y = list(k.y)
            y[0] += 1
            child.graph._kernel = dataclasses.replace(k, y=tuple(y))
        return child

    monkeypatch.setattr(experiments, "grow_step", step_with_a_wrong_kernel_at_k3)
    assert grow_table(2) == _fresh_rows(2)
    with pytest.raises(InvariantBrokenError, match="step 3: gap forms disagree"):
        grow_table(5)


@pytest.mark.parametrize("attrs, bad", [((2 ** 29,) * 8, False), ((2 ** 30,) * 8, True)])
def test_grow_table_refuses_sums_beyond_int64(monkeypatch, attrs, bad):
    # n max(L, |a|)^2 is 8 * 2**58 = 2**61 at |a| = 2**29, but 2**63 at 2**30.
    seed = dataclasses.replace(initial_growth_state(), attrs=attrs)
    monkeypatch.setattr(experiments, "initial_growth_state", lambda: seed)
    if bad:
        with pytest.raises(InvariantBrokenError, match="step 0: sums beyond int64"):
            grow_table(0)
    else:
        assert grow_table(0) == [(0, 8, 0.0, None)]

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sgfp.construct import path, star
from sgfp.errors import (
    DegenerateGraphError,
    InfeasibleAtEpsilonError,
    PreconditionViolatedError,
)
from sgfp.graph import Graph, build_graph, degrees, delta, exact_correlation, kernel
from sgfp.lp import _solve_exact, _solve_two_row, max_failing_correlation
from sgfp.metrics import correlation

from conftest import preferential_attachment, random_graphs


def _arrays(g):
    return (np.array(degrees(g), dtype=float),
            np.array([float(v) for v in delta(g)]))


def _objective(d, dl, eps):
    """The solver's optimum d . a after checking its witness, or None."""
    a = _solve_two_row(d, dl, eps)
    if a is None:
        return None
    assert np.all(np.abs(a) <= 1 + 1e-12)
    assert abs(a.sum()) < 1e-9
    assert dl @ a <= -eps + 1e-12
    # Tie rule: a near-vertex, with at most two entries strictly inside the
    # box besides a median node at 0.
    assert np.sum(np.abs(a) < 1 - 1e-9) <= 3
    return float(d @ a)


def _highs(d, dl, eps):
    """Reference optimum from scipy's HiGHS, or None when infeasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(d)
    res = linprog(-d, A_ub=[dl], b_ub=[-eps], A_eq=[np.ones(n)], b_eq=[0.0],
                  bounds=[(-1, 1)] * n, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def _assert_matches_highs(d, dl, eps):
    ours, ref = _objective(d, dl, eps), _highs(d, dl, eps)
    assert (ours is None) == (ref is None)
    if ref is not None:
        assert abs(ours - ref) <= 1e-9 * (1 + abs(ref))


def test_solver_matches_highs_on_criterion_5_stream():
    for g in random_graphs(201, 1000, n_range=(4, 10)):
        d, dl = _arrays(g)
        for eps in (1e-3, 1e-6):
            _assert_matches_highs(d, dl, eps)


@pytest.mark.parametrize("n", [1000, 2500, 10_000])
def test_solver_matches_highs_on_large_graphs(n):
    d, dl = _arrays(preferential_attachment(n, seed=n))
    _assert_matches_highs(d, dl, 1e-3)


def test_solver_matches_highs_on_degenerate_instances():
    # Few distinct values force median ties, repeated (d, delta) pairs and
    # optima at lambda = 0 or on the feasibility boundary.
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 9)
        d = np.array([rng.randint(1, 4) for _ in range(n)], dtype=float)
        dl = np.array([rng.choice([1 / 3, 0.5, 2 / 3, 1.0, 1.5, 2.0]) for _ in range(n)])
        _assert_matches_highs(d, dl, rng.choice([1e-6, 1e-3, 0.1, 0.5, 1.0]))


def _enumerate_vertices(c, constraints, lo, hi):
    """Brute-force LP oracle: evaluate every basic feasible point.

    Vertices of the feasible polytope lie on n active constraints chosen
    among rows (at equality) and bounds.
    """
    n = len(c)
    rows = []
    for coeffs, sense, rhs in constraints:
        rows.append((np.array(coeffs, float), sense, float(rhs)))
    candidate_planes = [(r[0], r[2]) for r in rows]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        candidate_planes.append((e.copy(), lo[i]))
        candidate_planes.append((e.copy(), hi[i]))
    best = None
    for combo in itertools.combinations(range(len(candidate_planes)), n):
        A = np.array([candidate_planes[k][0] for k in combo])
        b = np.array([candidate_planes[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < np.array(lo) - 1e-9) or np.any(x > np.array(hi) + 1e-9):
            continue
        ok = True
        for coeffs, sense, rhs in rows:
            v = float(coeffs @ x)
            if sense == "<=" and v > rhs + 1e-9:
                ok = False
            elif sense == ">=" and v < rhs - 1e-9:
                ok = False
            elif sense == "=" and abs(v - rhs) > 1e-9:
                ok = False
        if not ok:
            continue
        val = float(np.dot(c, x))
        if best is None or val > best:
            best = val
    return best


def test_solver_against_vertex_enumeration():
    rng = random.Random(11)
    graphs = [g for g in random_graphs(11, 40, n_range=(4, 6))]
    for g in graphs + [path(4), path(5), path(6), star(5)]:
        d, dl = _arrays(g)
        n = g.n
        for eps in (1e-3, 10 ** rng.uniform(-6, 0.5)):
            oracle = _enumerate_vertices(
                d, [([1.0] * n, "=", 0.0), (dl, "<=", -eps)], [-1.0] * n, [1.0] * n)
            ours = _objective(d, dl, eps)
            if oracle is None:
                assert ours is None
            else:
                assert abs(ours - oracle) < 1e-7


def test_infeasible_detected():
    # path(5) has delta = (1/2, 3/2, 1, 3/2, 1/2), so the least delta . a
    # over mean-zero a in the box is 1/2 + 1/2 - 3/2 - 3/2 = -2.
    d, dl = _arrays(path(5))
    assert _solve_two_row(d, dl, 2.0 + 1e-9) is None
    a = _solve_two_row(d, dl, 2.0 - 1e-9)
    assert abs(dl @ a + 2.0) < 1e-8
    with pytest.raises(PreconditionViolatedError):
        _solve_two_row(d, dl, 0.0)


def test_failing_correlation_lp_path5_positive_objective():
    res = max_failing_correlation(path(5))
    assert res.objective > 0
    assert res.r_high > 0


def test_failing_correlation_star_negative():
    res = max_failing_correlation(star(6))
    assert res.r_high < 0


def test_witness_invariants():
    for g in (path(5), path(7), star(6), preferential_attachment(10_000, seed=3)):
        res = max_failing_correlation(g, 0.001)
        n = g.n
        assert abs(sum(res.witness)) < 1e-9
        assert all(-1 - 1e-12 <= w <= 1 + 1e-12 for w in res.witness)
        dl = [float(v) for v in delta(g)]
        gap = sum(d * w for d, w in zip(dl, res.witness)) / n
        assert gap <= -0.001 / n + 1e-12
        assert abs(gap - res.gap) < 1e-12
        r = correlation(list(degrees(g)), res.witness)
        assert abs(r - res.r_high) < 1e-9


def test_epsilon_monotonicity():
    for g in (path(5), path(6)):
        r_small = max_failing_correlation(g, 1e-6).r_high
        r_large = max_failing_correlation(g, 1e-3).r_high
        assert r_small >= r_large - 1e-9


def test_infeasible_at_large_epsilon():
    with pytest.raises(InfeasibleAtEpsilonError):
        max_failing_correlation(path(5), epsilon=1e6)


def test_degenerate_graph_rejected():
    triangle = build_graph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DegenerateGraphError):
        max_failing_correlation(triangle)
    disconnected = build_graph([(0, 1), (1, 2), (3, 4)])
    with pytest.raises(DegenerateGraphError):
        max_failing_correlation(disconnected)


def test_determinism():
    a = max_failing_correlation(path(7), 0.001)
    b = max_failing_correlation(path(7), 0.001)
    assert a.witness == b.witness
    assert a.r_high == b.r_high


# --- the exact solver: the float solver, HiGHS and vertex enumeration are
# its references ---------------------------------------------------------

def _exact_witness(d, y, big_l, eps):
    """The exact solver's witness as Fractions, checked exactly, or None."""
    found = _solve_exact(d, y, big_l, eps)
    if found is None:
        return None
    am, m = found
    a = [Fraction(v, m) for v in am]
    assert sum(a) == 0
    assert sum(yi * ai for yi, ai in zip(y, a)) <= -Fraction(eps) * big_l
    assert all(-1 <= v <= 1 for v in a)
    # Entries in {-1, 0, 1} but for the two of one partial swap.
    assert sum(v.denominator != 1 for v in a) <= 2
    return a


def _exact_objective(d, y, big_l, eps):
    """The exact solver's optimum d . a, or None when infeasible."""
    a = _exact_witness(d, y, big_l, eps)
    return None if a is None else float(sum(di * ai for di, ai in zip(d, a)))


def test_exact_solver_matches_float_and_highs_on_criterion_5_stream():
    for g in random_graphs(201, 1000, n_range=(4, 10)):
        k = kernel(g)
        d, dl = _arrays(g)
        for eps in (1e-3, 1e-6):
            ours, ref = _exact_objective(k.deg, k.y, k.lcm, eps), _highs(d, dl, eps)
            a_float = _solve_two_row(d, dl, eps)
            assert (ours is None) == (ref is None) == (a_float is None)
            if ref is None:
                continue
            assert abs(ours - ref) <= 1e-9 * (1 + abs(ref))
            r_exact = correlation(list(k.deg), _exact_witness(k.deg, k.y, k.lcm, eps))
            assert abs(r_exact - correlation(list(k.deg), a_float.tolist())) <= 1e-15


def test_exact_solver_matches_highs_on_degenerate_instances():
    # The float test's instances in integers: delta in {1/3, ..., 2} is y / 6.
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 9)
        d = [rng.randint(1, 4) for _ in range(n)]
        y = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(n)]
        eps = rng.choice([1e-6, 1e-3, 0.1, 0.5, 1.0])
        ours = _exact_objective(d, y, 6, eps)
        ref = _highs(np.array(d, dtype=float), np.array(y) / 6, eps)
        assert (ours is None) == (ref is None)
        if ref is not None:
            assert abs(ours - ref) <= 1e-9 * (1 + abs(ref))


def test_exact_solver_against_vertex_enumeration():
    rng = random.Random(11)
    graphs = [g for g in random_graphs(11, 40, n_range=(4, 6))]
    for g in graphs + [path(4), path(5), path(6), star(5)]:
        k = kernel(g)
        d, dl = _arrays(g)
        n = g.n
        for eps in (1e-3, 10 ** rng.uniform(-6, 0.5)):
            oracle = _enumerate_vertices(
                d, [([1.0] * n, "=", 0.0), (dl, "<=", -eps)], [-1.0] * n, [1.0] * n)
            ours = _exact_objective(k.deg, k.y, k.lcm, eps)
            if oracle is None:
                assert ours is None
            else:
                assert abs(ours - oracle) < 1e-7


def test_exact_infeasibility_boundary():
    # path(5): the least delta . a is exactly -2, so epsilon = 2 is feasible.
    k = kernel(path(5))
    assert _exact_objective(k.deg, k.y, k.lcm, 2.0) is not None
    assert _solve_exact(k.deg, k.y, k.lcm, 2.0 + 1e-15) is None
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(PreconditionViolatedError):
            _solve_exact(k.deg, k.y, k.lcm, eps)


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [None] * g.n
    for i, neigh in enumerate(g.adj):
        adj[perm[i]] = [perm[j] for j in neigh]
    return Graph(adj)


def test_relabeling_leaves_r_high_and_witness_pairs_unchanged():
    rng = random.Random(13)
    for g in random_graphs(201, 1000, n_range=(4, 10)):
        res = max_failing_correlation(g, 0.001)
        pairs = sorted(zip(degrees(g), res.witness))
        for _ in range(5):
            h = _relabel(g, rng)
            other = max_failing_correlation(h, 0.001)
            assert other.r_high == res.r_high
            assert sorted(zip(degrees(h), other.witness)) == pairs


def _fraction_correlation(x, y):
    """Pearson correlation of exact rationals, with no float moment."""
    n = len(x)
    xm, ym = Fraction(sum(x), n), Fraction(sum(y), n)
    sxy = sum((u - xm) * (v - ym) for u, v in zip(x, y))
    sxx = sum((u - xm) ** 2 for u in x)
    syy = sum((v - ym) ** 2 for v in y)
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


@pytest.mark.parametrize("epsilon", [1e-200, 1e-300, 5e-324])
def test_r_high_at_tiny_epsilon_matches_fractions(epsilon):
    # The witness is (a * m, m) with m near 2**700 and beyond, so a moment
    # scaled by m * m leaves the float range.
    g = path(3)
    k = kernel(g)
    a, m = _solve_exact(k.deg, k.y, k.lcm, epsilon)
    r_high = max_failing_correlation(g, epsilon).r_high
    assert -1.0 <= r_high <= 1.0
    assert abs(r_high - _fraction_correlation(k.deg, [Fraction(v, m) for v in a])) <= 1e-15


@pytest.mark.parametrize("bits", [0, 600, 1100, 3000])
def test_exact_correlation_is_scale_free(bits):
    # From 600 bits on, a moment divided by the scale squared underflows.
    x, y = [1, 2, 2, 5, 3], [4, -1, 7, 2, 2]
    want = _fraction_correlation(x, y)
    assert abs(exact_correlation(x, y, 1, 1 << bits) - want) <= 1e-15
    assert abs(exact_correlation(x, y, 1 << bits, 1) - want) <= 1e-15

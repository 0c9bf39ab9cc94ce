import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfp.construct import example_graph_fig4, path, star
from sgfp.errors import (
    DegenerateGraphError,
    InfeasibleAtEpsilonError,
    InvariantBrokenError,
    PreconditionViolatedError,
)
from sgfp.graph import (Kernel, _float_delta, build_graph, degrees,
                        exact_correlation, kernel)
from sgfp import lp
from sgfp.lp import _failing_witness, _int_fill, _r_high, _solve_exact, max_failing_correlation
from sgfp.metrics import correlation, singular_gap
from sgfp.randgen import sample_connected_nonregular

from conftest import (every_signature, fraction_delta, preferential_attachment,
                      preferential_attachment_edges, random_graphs, rewired_with_isolates)


def _arrays(g):
    return (np.array(degrees(g), dtype=float),
            np.array([float(v) for v in fraction_delta(g)]))


def _objective(k, eps, g=None):
    """The LP's optimum d . a of its float witness a after checking it, or
    None; the LP is posed on the kernel's graph `g` when it is given, so from
    lp._FLOAT_MIN_N nodes on the float filters sum delta from it."""
    res = _failing_witness(k if g is None else g, eps)
    if res is None:
        return None
    a = np.array(res.witness)
    assert np.all(np.abs(a) <= 1)
    assert abs(a.sum()) < 1e-9
    assert np.array(k.delta) @ a <= -eps + 1e-12
    return math.fsum(map(operator.mul, k.deg, res.witness))


@functools.cache  # one solve per instance, shared by the tests of both descents
def _highs(deg, delta, eps):
    """Reference optimum from scipy's HiGHS for degrees and deltas given as
    tuples, or None when infeasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    d, dl, n = np.array(deg, dtype=float), np.array(delta), len(deg)
    res = linprog(-d, A_ub=[dl], b_ub=[-eps], A_eq=[np.ones(n)], b_eq=[0.0],
                  bounds=[(-1, 1)] * n, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def _assert_close(ours, ref):
    assert (ours is None) == (ref is None)
    if ref is not None:
        assert abs(ours - ref) <= 1e-9 * (1 + abs(ref))


@functools.cache
def _criterion_5_stream():
    return list(random_graphs(201, 1000, n_range=(4, 10)))


@pytest.mark.parametrize("eps", [1e-3, 0.5, 1.0])
def test_r_high_without_a_witness_equals_the_witness_path(eps):
    # As the census calls it: on a kernel, without a witness. Its r_high is also the correlation of
    # the degrees with the witness, computed again from the witness's integers.
    kernels = [kernel(g) for g in _criterion_5_stream()]
    kernels += [Kernel(tuple(d), big_l, tuple(y)) for n in range(3, 8)
                for d, big_l, y in every_signature(n)]
    infeasible = 0
    for k in kernels:
        res = _failing_witness(k, eps)
        got = _r_high(k, eps)
        if res is None:
            assert got is None
            infeasible += 1
            continue
        r_high, (a, m, fill, _) = got
        scaled = [fill.get(i, int(v) * m) for i, v in enumerate(a)]
        assert r_high == res.r_high
        assert [v / m for v in scaled] == res.witness
        assert exact_correlation(k.deg, scaled, 1, m) == r_high
    assert infeasible < len(kernels) // 2


def test_solver_matches_highs_on_criterion_5_stream():
    for g in _criterion_5_stream():
        k = kernel(g)
        for eps in (1e-3, 1e-6):
            _assert_close(_objective(k, eps), _highs(k.deg, k.delta, eps))


@pytest.mark.parametrize("n", [1000, 2500, 10_000])
def test_solver_matches_highs_on_large_graphs(n):
    g = preferential_attachment(n, seed=n)
    k = kernel(g)
    _assert_close(_objective(k, 1e-3, g), _highs(k.deg, k.delta, 1e-3))


def _degenerate_instances():
    # Few distinct values force median ties, repeated (d, delta) pairs and
    # optima at lambda = 0 or on the feasibility boundary; delta = y / 6.
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 9)
        d = [rng.randint(1, 4) for _ in range(n)]
        y = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(n)]
        yield Kernel(tuple(d), 6, tuple(y)), rng.choice([1e-6, 1e-3, 0.1, 0.5, 1.0])


def test_solver_matches_highs_on_degenerate_instances():
    for k, eps in _degenerate_instances():
        _assert_close(_objective(k, eps), _highs(k.deg, k.delta, eps))


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


@functools.cache  # the enumeration is the slow part of both vertex tests
def _vertex_cases():
    rng = random.Random(11)
    graphs = [g for g in random_graphs(11, 40, n_range=(4, 6))]
    cases = []
    for g in graphs + [path(4), path(5), path(6), star(5)]:
        d, dl = _arrays(g)
        for eps in (1e-3, 10 ** rng.uniform(-6, 0.5)):
            oracle = _enumerate_vertices(
                d, [([1.0] * g.n, "=", 0.0), (dl, "<=", -eps)], [-1.0] * g.n, [1.0] * g.n)
            cases.append((kernel(g), eps, oracle))
    return cases


def test_solver_against_vertex_enumeration():
    for k, eps, oracle in _vertex_cases():
        ours = _objective(k, eps)
        if oracle is None:
            assert ours is None
        else:
            assert abs(ours - oracle) < 1e-7


def test_infeasible_detected():
    # path(5) has delta = (1/2, 3/2, 1, 3/2, 1/2), so the least delta . a
    # over mean-zero a in the box is 1/2 + 1/2 - 3/2 - 3/2 = -2.
    k = kernel(path(5))
    assert _failing_witness(k, 2.0 + 1e-9) is None
    res = _failing_witness(k, 2.0 - 1e-9)
    assert abs(res.gap * 5 + 2.0) < 1e-8
    with pytest.raises(PreconditionViolatedError):
        _failing_witness(k, 0.0)


def test_failing_correlation_lp_path5_positive_objective():
    res = max_failing_correlation(path(5))
    assert math.fsum(map(operator.mul, degrees(path(5)), res.witness)) > 0
    assert res.r_high > 0


def test_fig4_has_a_failing_sample_of_positive_correlation():
    # The lemma's conclusion on an anti graph: the LP's witness has mean 0,
    # fails, and its correlation with the degrees is r_high > 0.
    g, _ = example_graph_fig4()
    res = max_failing_correlation(g)
    assert res.r_high > 0
    assert abs(sum(res.witness)) < 1e-12
    assert singular_gap(g, res.witness) < 0
    assert abs(correlation(list(degrees(g)), res.witness) - res.r_high) <= 1e-12


def test_failing_correlation_star_negative():
    res = max_failing_correlation(star(6))
    assert res.r_high < 0


def test_witness_invariants():
    for g in (path(5), path(7), star(6), preferential_attachment(10_000, seed=3)):
        res = max_failing_correlation(g, 0.001)
        n = g.n
        assert abs(sum(res.witness)) < 1e-9
        assert all(-1 - 1e-12 <= w <= 1 + 1e-12 for w in res.witness)
        dl = [float(v) for v in fraction_delta(g)]
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


# --- the exact descent with and without its float filters: HiGHS, vertex
# enumeration and the reference below -------------------------------------

def _reference_exact(deg, y, big_l, epsilon):
    """The exact descent from kappa = 0 with no float in it: every pass
    evaluates c = q * d - p * y at every node, and each slope step orders
    all the slopes over the lcm of their denominators. Returns what
    :func:`_solve_exact` returns, with `a` as a list."""
    e, s = epsilon.as_integer_ratio()
    e *= big_l
    n = len(deg)
    y_sorted = sorted(y)
    if s * (sum(y_sorted[:n // 2]) - sum(y_sorted[n - n // 2:])) + e > 0:
        return None
    p, q, lo, hi = 0, 1, Fraction(-1), math.inf
    for _ in range(1000):
        c = [q * di - p * yi for di, yi in zip(deg, y)]
        mu = sorted(c)[(n - 1) // 2]
        a = [(v > mu) - (v < mu) for v in c]
        tie = [i for i, v in enumerate(c) if v == mu]
        total = -sum(a)
        up = sorted(tie, key=y.__getitem__)
        ys = [y[i] for i in up]
        vals = _int_fill(len(tie), total)
        ya = sum(yi * ai for yi, ai in zip(y, a))
        h_up = s * (ya + sum(map(operator.mul, ys, vals))) + e
        h_down = s * (ya + sum(map(operator.mul, reversed(ys), vals))) + e
        if h_up <= 0 and (p == 0 or h_down >= 0):
            m, done = 1, 0
            for i in range(len(up) // 2):
                gain = s * (vals[i] - vals[-1 - i]) * (ys[-1 - i] - ys[i])
                if done + gain >= -h_up:
                    if -h_up > done:
                        shift = (-h_up - done) * (vals[-1 - i] - vals[i])
                        g = math.gcd(shift, gain)
                        m = gain // g
                        vals = [v * m for v in vals]
                        vals[i] += shift // g
                        vals[-1 - i] -= shift // g
                    break
                vals[i], vals[-1 - i] = vals[-1 - i], vals[i]
                done += gain
            vals = [-v for _, v in sorted(zip(ys, (-v for v in vals)))]
            return a, m, dict(zip(up, vals)), m * ya + sum(map(operator.mul, ys, vals))
        j = min((total + len(tie)) // 2, len(tie) - 1)
        if h_up > 0:
            lo, piv = Fraction(p, q), up[j]
        else:
            hi, piv = Fraction(p, q), up[-1 - j]
        dp, yp = deg[piv], y[piv]
        lines = [(dk - dp, yk - yp) for dk, yk in zip(deg, y) if yk != yp]
        big_d = math.lcm(*(w for _, w in lines))
        lines = sorted((num * (big_d // w), abs(w)) for num, w in lines)
        target = s * sum(w for _, w in lines) + e
        cum = 0
        for slope, w in lines:
            cum += w
            if 2 * s * cum >= target:
                break
        step = max(Fraction(slope, big_d), Fraction(0))
        if not lo < step < hi:
            break
        p, q = step.numerator, step.denominator
    raise AssertionError("reference descent stalled")


def _numpy(k):
    """(d, delta) as numpy arrays: they turn on the float filters."""
    return np.array(k.deg), np.array(k.delta)


def _filters(d, dl):
    """(d, delta, their maxima): the arrays the filtered pass and step take."""
    return d, dl, int(d.max()), float(dl.max())


def _solve(k, eps, filtered=False):
    return _solve_exact(k.deg, k.y, k.lcm, eps, _numpy(k) if filtered else None)


def _exact_witness(k, eps, filtered=False):
    """The exact solver's witness as Fractions, checked exactly, or None."""
    found = _solve(k, eps, filtered)
    if found is None:
        return None
    am, m, fill, ya = found
    a = [Fraction(fill[i], m) if i in fill else Fraction(int(v)) for i, v in enumerate(am)]
    assert all(v in (-1, 1) for i, v in enumerate(am) if i not in fill)
    assert sum(a) == 0
    assert sum(yi * ai for yi, ai in zip(k.y, a)) == Fraction(ya, m)
    assert Fraction(ya, m) <= -Fraction(eps) * k.lcm
    assert all(-1 <= v <= 1 for v in a)
    # Entries in {-1, 0, 1} but for the two of one partial swap.
    assert sum(v.denominator != 1 for v in a) <= 2
    return a


def _scaled(found):
    """The solver's witness as (a * m, m) and y . a * m."""
    am, m, fill, ya = found
    return [fill.get(i, int(v) * m) for i, v in enumerate(am)], m, ya


def _exact_objective(k, eps, filtered=False):
    """The exact solver's optimum d . a, or None when infeasible."""
    a = _exact_witness(k, eps, filtered)
    return None if a is None else float(sum(di * ai for di, ai in zip(k.deg, a)))


def _assert_matches_reference(k, eps):
    # With exact passes and steps, and with filtered ones.
    want = _reference_exact(k.deg, k.y, k.lcm, eps)
    for filtered in (False, True):
        got = _solve(k, eps, filtered)
        assert (got is None) == (want is None)
        if want is not None:
            assert _scaled(got) == _scaled(want)


def test_exact_solver_matches_float_and_highs_on_criterion_5_stream():
    # Both descents match HiGHS and return exactly the reference's witness.
    for g in _criterion_5_stream():
        k = kernel(g)
        for eps in (1e-3, 1e-6):
            _assert_close(_exact_objective(k, eps, filtered=True), _highs(k.deg, k.delta, eps))
            _assert_matches_reference(k, eps)


def test_exact_solver_matches_highs_on_degenerate_instances():
    for k, eps in _degenerate_instances():
        _assert_close(_exact_objective(k, eps, filtered=True), _highs(k.deg, k.delta, eps))
        _assert_matches_reference(k, eps)


def _float_defeating_kernels():
    # L > 2**60 and y in clusters whose members differ by a few units, so
    # their deltas are equal as floats, as are the float slopes of lines that
    # join two clusters through nodes of equal degree.
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 90)
        big_l = rng.randrange(1 << 61, 1 << 64) | 1
        centres = [rng.randrange(big_l // 3, 3 * big_l) for _ in range(rng.randint(1, 4))]
        y = [rng.choice(centres) + rng.randrange(4) for _ in range(n)]
        yield Kernel(tuple(rng.randint(1, 4) for _ in range(n)), big_l, tuple(y))


class _CheckedList(list):
    """A list whose integer indices must lie in range: no negative ones."""

    def __getitem__(self, i):
        assert not isinstance(i, int) or 0 <= i < len(self), (i, len(self))
        return super().__getitem__(i)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_filtered_pass_takes_the_median_inside_its_band(data):
    # The float median is the r-th float, so at most r floats lie 2 err below
    # it and at least r + 1 within 2 err above: the exact median's rank in
    # the band is in range while every float is finite, which the overflow
    # guard ensures. Few degrees and y, some 1 apart under a large L, tie
    # both exactly and in floats; the pass must equal the exact one.
    n = data.draw(st.integers(1, 30))
    big_l = data.draw(st.sampled_from([6, 60, (1 << 61) + 1, 3 << 200]))
    centres = data.draw(st.lists(st.integers(1, 3 * big_l), min_size=1, max_size=3))
    deg = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    y = [data.draw(st.sampled_from(centres)) + data.draw(st.integers(0, 2)) for _ in range(n)]
    p, q = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "sorted", lambda *args, **kw: _CheckedList(sorted(*args, **kw)),
                   raising=False)
        got = lp._filtered_pass(deg, y, big_l,
                                *_filters(np.array(deg), np.array([v / big_l for v in y])), p, q)
    c = [q * di - p * yi for di, yi in zip(deg, y)]
    mu = sorted(c)[(n - 1) // 2]
    a = [(v > mu) - (v < mu) for v in c]
    assert got[0].tolist() == a and got[2] == -sum(a)
    assert got[1] == sorted((i for i, v in enumerate(c) if v == mu), key=y.__getitem__)


def _overflowing_kernel():
    # lambda = kappa * L leaves the float range at kappa = 1 / 1, so the
    # filtered pass there must fall back to the exact one.
    rng = random.Random(29)
    big_l = 3 << 1100
    y = [big_l // 2, big_l // 2 + 1] + [rng.randrange(big_l // 4, 2 * big_l) for _ in range(70)]
    return Kernel((2, 3, *(rng.randint(1, 5) for _ in range(70))), big_l, tuple(y))


def _spy(monkeypatch, name):
    """Record every result of lp.<name>; None is a fallback to exact work."""
    results = []
    real = getattr(lp, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(lp, name, spy)
    return results


def test_float_defeating_instances_match_reference(monkeypatch):
    k = _overflowing_kernel()
    assert lp._filtered_pass(k.deg, k.y, k.lcm, *_filters(*_numpy(k)), 1, 1) is None
    for eps in (1e-3, 0.1):
        _assert_matches_reference(k, eps)
    steps = _spy(monkeypatch, "_filtered_step")
    for k in _float_defeating_kernels():
        for eps in (1e-18, 1e-3, 0.5):
            _assert_matches_reference(k, eps)
    assert None in steps  # a slope step fell back to the exact one


def test_exact_solver_against_vertex_enumeration():
    for k, eps, oracle in _vertex_cases():
        ours = _exact_objective(k, eps, filtered=True)
        if oracle is None:
            assert ours is None
        else:
            assert abs(ours - oracle) < 1e-7


def test_exact_infeasibility_boundary():
    # path(5): the least delta . a is exactly -2, so epsilon = 2 is feasible.
    k = kernel(path(5))
    for filtered in (False, True):
        assert _exact_objective(k, 2.0, filtered) is not None
        assert _solve(k, 2.0 + 1e-15, filtered) is None
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(PreconditionViolatedError):
            _solve_exact(k.deg, k.y, k.lcm, eps)


def _lines(deg, y, piv):
    """The slope step's lines through the pivot as sorted (slope, weight)."""
    return sorted((Fraction(dk - deg[piv], yk - y[piv]), abs(yk - y[piv]))
                  for dk, yk in zip(deg, y) if yk != y[piv])


def _weighted_median_slope(deg, y, big_l, piv, eps):
    """The slope step's answer from Fractions: the least slope through the
    pivot at which the cumulative weight |y_k - y_p| reaches (W + eps L) / 2."""
    lines = _lines(deg, y, piv)
    target = (sum(w for _, w in lines) + Fraction(eps) * big_l) / 2
    cum = itertools.accumulate(w for _, w in lines)
    return next((sl for (sl, _), c in zip(lines, cum) if c >= target), lines[-1][0])


def _knife_edge_steps(rng):
    # delta = y / L is inexact; eps = 0.5, and every eps that puts the target
    # exactly on a cumulative weight, where only the margin keeps the float
    # sums from deciding wrongly.
    for _ in range(1500):
        n, big_l = rng.randint(3, 16), rng.choice([6, 12, 60, 3 << 20, 15 << 30])
        y = [rng.randint(1, rng.choice([big_l // 3, 2 * big_l, 6 * big_l])) for _ in range(n)]
        deg, piv = [rng.randint(1, 8) for _ in range(n)], rng.randrange(n)
        lines = _lines(deg, y, piv)
        total = sum(w for _, w in lines)
        yield deg, big_l, y, piv, 0.5
        for c in itertools.accumulate(w for _, w in lines):
            eps = Fraction(2 * c - total, big_l)
            if eps > 0 and eps.denominator & (eps.denominator - 1) == 0:  # a float exactly
                yield deg, big_l, y, piv, float(eps)


def _near_reversals(rng):
    # Slopes 1 / w and 2 / (2 w + 1) through the pivot differ by a relative
    # 1 / (2 w), far below float resolution, so their floats may swap; the
    # target falls between them. Only the slopes' error bounds catch that.
    for _ in range(200):
        big_l = rng.randrange(1 << 61, 1 << 62) | 1
        yp, w = rng.randrange(big_l // 2, big_l), rng.randrange(big_l // 8, big_l // 4)
        y = [yp, yp + w, yp + 2 * w + 1, *[yp + 3 * w + rng.randrange(w)] * 3, yp + w // 5]
        eps = Fraction(2 * sum(y[3:6]) + w - sum(y[1:]), big_l)  # 2 W_low + w - W, over L
        yield [10, 11, 12, 5, 5, 5, 19], big_l, y, 0, float(eps)


def test_filtered_step_is_the_exact_weighted_median():
    rng = random.Random(31)
    decided = 0
    for deg, big_l, y, piv, eps in itertools.chain(_knife_edge_steps(rng), _near_reversals(rng)):
        dl = np.array([v / big_l for v in y])
        got = lp._filtered_step(deg, y, *_filters(np.array(deg), dl), piv, eps)
        if got is not None:
            decided += 1
            assert Fraction(*got) == _weighted_median_slope(deg, y, big_l, piv, eps)
    assert decided > 1000


def _descent_cases():
    yield from random_graphs(201, 300, n_range=(4, 10))
    for n in (30, 200, 1000, 10_000):
        yield preferential_attachment(n, seed=n)


def _hub_graphs():
    # Hubs of degree 600 and 900, where a summed float delta strays furthest
    # (1.01 u d_i delta_i).
    for n, hub in ((1500, 600), (3000, 900)):
        rng = random.Random(n)
        extra = [(n, v) for v in rng.sample(range(n), hub)]
        yield build_graph(preferential_attachment_edges(n, n) + extra)


@pytest.mark.parametrize("eps", [1e-3, 0.5, 1.0])  # dyadic: the dual optimum may be an interval
def test_filtered_descent_gives_the_exact_witness(eps):
    # With correctly rounded deltas, and with the summed ones the LP uses.
    for g in itertools.chain(_descent_cases(), _hub_graphs()):
        k = kernel(g)
        want = _solve(k, eps)
        for dl in (np.array(k.delta), _float_delta(g)):
            got = _solve_exact(k.deg, k.y, k.lcm, eps, (g.deg, dl))
            assert (got is None) == (want is None)
            if want is not None:
                assert _scaled(got) == _scaled(want)
    assert [max(g.deg) for g in _hub_graphs()] == [600, 900]


def test_summed_deltas_with_l_beyond_the_float_range():
    # A half graph (a_i joined to b_1..b_i) has the degrees 1..760 twice, so
    # L > 2**1024, and twins a_i, b_(761-i) with one y whose float deltas
    # are summed in reverse order. Its float slopes (d_k - d_p) / (y_k - y_p)
    # underflow and tie, so the unfiltered descent's slope steps order their
    # lines by exact slopes; the references are the filters on correctly
    # rounded deltas, whose every decision is exact, and HiGHS.
    g = build_graph([(f"a{i}", f"b{j}") for i in range(1, 761) for j in range(1, i + 1)])
    k = kernel(g)
    assert k.lcm.bit_length() > 1024 and sorted(set(k.deg)) == list(range(1, 761))
    for eps in (1e-3, 0.5):
        want = _solve_exact(k.deg, k.y, k.lcm, eps, _numpy(k))
        assert _scaled(_solve_exact(k.deg, k.y, k.lcm, eps, (g.deg, _float_delta(g)))) == \
            _scaled(want)
        assert _scaled(_solve(k, eps)) == _scaled(want)
        _assert_close(_exact_objective(k, eps, filtered=True), _highs(k.deg, k.delta, eps))


@pytest.mark.parametrize("n", [200, 1000, 10_000])
def test_large_lps_need_no_exact_pass_or_slope_step(monkeypatch, n):
    # A fallback would still give the right witness, only 6-10 times slower.
    passes, steps = _spy(monkeypatch, "_filtered_pass"), _spy(monkeypatch, "_filtered_step")
    g = preferential_attachment(n, seed=n)
    for eps in (1e-3, 0.5, 1.0):
        assert _r_high(g, eps) is not None
    assert passes and steps
    assert None not in passes and None not in steps


def test_refused_filters_fall_back_to_the_exact_witness(monkeypatch):
    # When every filtered pass and slope step refuses, the descent on arrays
    # runs the exact ones and must give the same results.
    gs = [preferential_attachment(n, seed=n) for n in (200, 1000)]
    want = [_failing_witness(g, eps) for g in gs for eps in (1e-3, 0.5)]
    monkeypatch.setattr(lp, "_filtered_pass", lambda *args: None)
    monkeypatch.setattr(lp, "_filtered_step", lambda *args: None)
    assert [_failing_witness(g, eps) for g in gs for eps in (1e-3, 0.5)] == want
    for g in gs:
        _assert_matches_reference(kernel(g), 1e-3)


@pytest.mark.parametrize("eps", [1e-3, 0.5])
def test_a_graph_and_its_kernel_pose_the_same_lp(eps):
    # A graph's float filters sum delta from it, its kernel's take the
    # correctly rounded delta; both drop isolates. Below lp._FLOAT_MIN_N
    # nodes with edges neither filters, above it both do.
    gs = [preferential_attachment(n, seed=n) for n in (60, 200, 1000)]
    gs += rewired_with_isolates(preferential_attachment(150, 3), 3)
    assert [np.count_nonzero(g.deg) >= lp._FLOAT_MIN_N for g in gs] == [False] + [True] * 5
    for g in gs:
        want = _failing_witness(kernel(g), eps)
        assert want is not None and len(want.witness) == np.count_nonzero(g.deg)
        assert _failing_witness(g, eps) == want


def test_a_stalled_descent_raises_after_one_slope_step(monkeypatch):
    # A slope step that leaves kappa where it was must end the descent at
    # once, not after the loop's 1000 iterations.
    steps = []
    monkeypatch.setattr(lp, "_filtered_step", lambda *args: steps.append(1) or (0, 1))
    with pytest.raises(InvariantBrokenError, match="stalled at kappa=0/1"):
        max_failing_correlation(preferential_attachment(300, seed=3))
    assert len(steps) == 1


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph([(perm[i], perm[j]) for i, j in g.edges()], nodes=range(g.n))


def test_relabeling_leaves_r_high_and_witness_pairs_unchanged():
    rng = random.Random(13)
    larger = [sample_connected_nonregular(50, 0.2, 1), sample_connected_nonregular(500, 0.02, 2),
              preferential_attachment(10_000, seed=5)]
    for g in itertools.chain(_criterion_5_stream(), larger):
        res = max_failing_correlation(g, 0.001)
        pairs = sorted(zip(degrees(g), res.witness))
        for _ in range(5 if g.n <= 10 else 2):
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
    r_high = max_failing_correlation(g, epsilon).r_high
    assert -1.0 <= r_high <= 1.0
    assert abs(r_high - _fraction_correlation(k.deg, _exact_witness(k, epsilon))) <= 1e-15


@pytest.mark.parametrize("bits", [0, 600, 1100, 3000])
def test_exact_correlation_is_scale_free(bits):
    # From 600 bits on, a moment divided by the scale squared underflows.
    x, y = [1, 2, 2, 5, 3], [4, -1, 7, 2, 2]
    want = _fraction_correlation(x, y)
    assert abs(exact_correlation(x, y, 1, 1 << bits) - want) <= 1e-15
    assert abs(exact_correlation(x, y, 1 << bits, 1) - want) <= 1e-15

"""Differential tests: the integer kernel against the exact Fraction reference.

The reference functions below, with conftest's fraction_delta, are the
rational-arithmetic implementations the kernel replaced. They are kept in
the tests only, as the oracle: every exact quantity must be equal, and every
float bit-equal.
"""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfp import graph
from sgfp.classify import ANTI, DEGENERATE, PRO, classify, threshold_estimate
from sgfp.errors import IsolatedNodeError, PreconditionViolatedError
from sgfp.experiments import grow_table
from sgfp.graph import (Kernel, _moments, build_graph, exact_correlation,
                        is_connected, is_regular, kernel)
from sgfp.lp import max_failing_correlation
from sgfp.metrics import (_as_ints, correlation, gap_report, list_gap, r_d_delta, singular_gap,
                          singular_gap_delta_form)
from sgfp.randgen import SplitMix64, configuration_rewire, mix

from conftest import every_signature, fraction_delta, preferential_attachment, random_graphs


def ref_correlation(x, y):
    n = len(x)
    if n < 2:
        return None
    xm = Fraction(sum(x), n)
    ym = Fraction(sum(y), n)
    sxy = sum((xi - xm) * (yi - ym) for xi, yi in zip(x, y))
    sxx = sum((xi - xm) ** 2 for xi in x)
    syy = sum((yi - ym) ** 2 for yi in y)
    if sxx == 0 or syy == 0:
        return None
    if sxy == 0:
        return 0.0
    if sxy * sxy == sxx * syy:
        return 1.0 if sxy > 0 else -1.0
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def ref_classify(g):
    """(kind, witness) from the rational affine fit delta = x*d + z."""
    if g.n == 0 or not is_connected(g) or is_regular(g):
        return DEGENERATE, None
    deg = [len(a) for a in g.adj]
    dl = fraction_delta(g)
    j = next(k for k in range(g.n) if deg[k] != deg[0])
    x = Fraction(dl[0] - dl[j], deg[0] - deg[j])
    z = dl[0] - x * deg[0]
    if x <= 0 or any(dl[k] != x * deg[k] + z for k in range(g.n)):
        return ANTI, None
    return PRO, (x, z)


def ref_singular_gap(g, a):
    """Mean friend attribute minus mean attribute over non-isolated nodes."""
    active = [i for i in range(g.n) if g.adj[i]]
    total = sum(Fraction(sum(a[j] for j in g.adj[i]), len(g.adj[i])) - a[i] for i in active)
    return total / len(active)


def ref_list_gap(g, a):
    """Degree-weighted mean attribute minus mean attribute over non-isolated nodes."""
    active = [i for i in range(g.n) if g.adj[i]]
    dsum = sum(len(g.adj[i]) for i in active)
    return (Fraction(sum(len(g.adj[i]) * a[i] for i in active), dsum)
            - Fraction(sum(a[i] for i in active), len(active)))


def ref_is_exact(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def ref_as_ints(values):
    """Exact values as integers over their common denominator s: (v * s, s)."""
    s = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (s // v.denominator) for v in values], s


def _attrs(g, seed, fractions):
    rng = SplitMix64(seed)
    if fractions:
        return [Fraction(rng.randrange(101) - 50, 1 + rng.randrange(7)) for _ in range(g.n)]
    return [rng.randrange(41) - 20 for _ in range(g.n)]


def check_against_reference(g, seed):
    k = kernel(g)
    dl = fraction_delta(g)
    deg = [len(a) for a in g.adj]
    active = [i for i in range(g.n) if deg[i]]
    assert tuple(Fraction(y, k.lcm) for y in k.y) == dl
    assert k.delta == tuple(float(v) for v in dl)
    assert k.r_ddelta == ref_correlation([deg[i] for i in active], [dl[i] for i in active])
    if active and len(active) == g.n:
        assert r_d_delta(g) == ref_correlation(deg, list(dl))
    elif active:
        with pytest.raises(IsolatedNodeError):
            r_d_delta(g)
    cls = classify(g)
    assert (cls.kind, cls.witness) == ref_classify(g)
    if cls.kind != DEGENERATE:
        assert cls.r_ddelta == ref_correlation(deg, list(dl))
    if active:
        for fractions in (False, True):
            a = _attrs(g, seed, fractions)
            want = ref_singular_gap(g, a)
            assert singular_gap(g, a) == want
            assert singular_gap_delta_form(g, a) == want
            assert list_gap(g, a) == ref_list_gap(g, a)


@st.composite
def graphs(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return build_graph(edges, nodes=range(n))


@given(graphs(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_hypothesis(g, seed):
    check_against_reference(g, seed)


def test_kernel_matches_reference_on_criterion_5_graphs():
    for i, g in enumerate(random_graphs(201, 1000, n_range=(4, 10))):
        check_against_reference(g, mix(201, 30_000 + i))


exact_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
)


@given(st.lists(st.tuples(exact_values, exact_values), min_size=0, max_size=12))
@settings(max_examples=400, deadline=None)
def test_exact_correlation_bit_equal(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    assert correlation(x, y) == ref_correlation(x, y)


@given(st.lists(exact_values, min_size=2, max_size=12, unique=True),
       exact_values, exact_values)
@settings(max_examples=200, deadline=None)
def test_exact_correlation_affine_is_exactly_one(x, slope, shift):
    y = [slope * v + shift for v in x]
    want = None if slope == 0 else (1.0 if slope > 0 else -1.0)
    assert correlation(x, y) == ref_correlation(x, y) == want


def test_isolated_node_attribute_is_ignored():
    g = build_graph([(0, 1), (1, 2)], nodes=[0, 1, 2, 3])
    a = [Fraction(1, 3), 2, Fraction(-5, 7), None]
    assert singular_gap(g, a) == ref_singular_gap(g, a)
    assert kernel(g).delta[3] == 0.0


def test_kernel_is_computed_once():
    g = build_graph([(0, 1), (1, 2)])
    assert kernel(g) is kernel(g)


LAZY = {"moments", "r_ddelta", "delta"}


def test_lazy_kernel_quantities_equal_their_definitions():
    rewired, _ = configuration_rewire(preferential_attachment(40, seed=1), 18)
    assert not all(rewired.adj)  # isolates, as before strip_isolates
    kernels = [Kernel(tuple(d), big_l, tuple(y)) for n in range(3, 8)
               for d, big_l, y in every_signature(n)]
    kernels += map(kernel, (rewired, build_graph([(0, 1)], nodes=range(3)),
                            preferential_attachment(10_000, seed=7)))
    for k in kernels:
        active = [i for i, d in enumerate(k.deg) if d]
        deg, y = [k.deg[i] for i in active], [k.y[i] for i in active]
        assert k.moments == _moments(deg, y)
        assert k.r_ddelta == exact_correlation(deg, y, 1, k.lcm)
        assert k.delta == tuple(v / k.lcm for v in k.y)
        assert LAZY <= set(vars(k)) and k == Kernel(k.deg, k.lcm, k.y)


def test_kernel_quantities_wait_until_read(monkeypatch):
    made = []

    class Recorded(Kernel):
        def __init__(self, *fields):
            super().__init__(*fields)
            made.append(self)

    monkeypatch.setattr(graph, "Kernel", Recorded)
    g = preferential_attachment(200, seed=2)  # large enough for the LP's float filters
    kernel(g)
    grow_table(20)
    max_failing_correlation(g)
    assert len(made) == 1 + 21
    assert all(LAZY.isdisjoint(vars(k)) for k in made)
    assert classify(g).kind == ANTI
    assert LAZY.intersection(vars(kernel(g))) == {"moments", "r_ddelta"}


def test_threshold_sums_the_moments_once(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append(len(x))
        return _moments(x, y)

    # Also any copy of _moments imported into classify.
    for module in (graph, importlib.import_module("sgfp.classify")):
        monkeypatch.setattr(module, "_moments", counted, raising=False)
    g = preferential_attachment(200, seed=2)
    assert threshold_estimate(g).validated
    assert calls == [200] and classify(g).kind == ANTI


def as_fraction(v):
    """The exact value of a number; numpy scalars by way of the Python number."""
    return Fraction(v.item() if isinstance(v, np.generic) else v)


mixed_values = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(np.int64),
)


@given(st.one_of(st.lists(mixed_values, max_size=10),
                 st.lists(st.one_of(st.integers(), st.booleans()), max_size=10),
                 st.lists(st.one_of(st.integers(), st.fractions()), max_size=10)))
@settings(max_examples=500, deadline=None)
def test_exact_ints_matches_isinstance_reference(values):
    ints, s, exact = _as_ints(values)
    assert exact == ref_is_exact(values)
    assert (list(ints), s) == ref_as_ints([as_fraction(v) for v in values])
    assert all(type(v) is int for v in ints)


special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 2.0 ** -1022, 1.7976931348623157e308, 0.1])
float_tables = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  special_floats), min_size=1, max_size=6)


@given(float_tables.flatmap(lambda table: st.lists(st.sampled_from(table), max_size=30)),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_float_ints_match_reference_with_repeats(values, numpy_floats):
    """Float samples (a witness repeats a few values) convert each value exactly."""
    if numpy_floats:
        values = [np.float64(v) for v in values]
    ints, s, exact = _as_ints(values)
    assert not exact or not values
    assert (list(ints), s) == ref_as_ints([as_fraction(v) for v in values])
    assert all(type(v) is int for v in ints)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_ints_refuse_non_finite(bad):
    with pytest.raises(PreconditionViolatedError):
        _as_ints([1.5, bad, 1.5])


def test_exact_ints_keeps_int_input():
    values = [3, -1, 10**30]
    ints, s, exact = _as_ints(values)
    assert ints is values and s == 1 and exact


def assert_same_float(got, want):
    assert type(got) is float and got.hex() == float(want).hex()


# Finite floats small enough that no metric leaves the float range.
float_values = st.floats(-1e300, 1e300)
float_samples = st.one_of(
    st.lists(float_values, min_size=24, max_size=24),
    st.lists(st.one_of(float_values, st.integers(-10**20, 10**20),
                       st.integers(-10**6, 10**6).map(np.int64)),
             min_size=24, max_size=24),
)


@given(graphs(), float_samples)
@settings(max_examples=300, deadline=None)
def test_float_metrics_are_the_rounded_exact_values(g, sample):
    a = sample[:g.n]
    deg = [len(nb) for nb in g.adj]
    active = [i for i in range(g.n) if deg[i]]
    if ref_is_exact([a[i] for i in active]):  # isolates' entries are ignored
        a[active[0]] = float(a[active[0]])
    exact = [as_fraction(v) for v in a]
    gap, lgap = ref_singular_gap(g, exact), ref_list_gap(g, exact)
    assert_same_float(singular_gap(g, a), gap)
    assert_same_float(singular_gap_delta_form(g, a), gap)
    assert_same_float(list_gap(g, a), lgap)
    report = gap_report(g, a)
    for got, d, nb in zip(report.s, deg, g.adj):
        if d:
            assert_same_float(got, Fraction(sum(exact[j] for j in nb), d))
        else:
            assert got is None
    assert_same_float(report.singular_gap, gap)
    assert_same_float(report.list_gap, lgap)
    # The reference rounds each moment to a float, so its result holds
    # only while the moments stay inside the float range.
    if all(v == 0 or 1e-100 < abs(v) < 1e100 for v in a):
        assert correlation(deg, a) == ref_correlation(deg, exact)
        assert report.r_da == ref_correlation([deg[i] for i in active],
                                              [exact[i] for i in active])

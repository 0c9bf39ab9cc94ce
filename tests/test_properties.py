"""Algebraic invariants of the gap metrics on random graph/attribute pairs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sgfp.classify import PRO, classify
from sgfp.graph import degrees
from sgfp.metrics import (
    correlation,
    list_gap,
    r_d_delta,
    singular_gap,
    singular_gap_delta_form,
)
from sgfp.randgen import SplitMix64, mix

from conftest import fraction_delta, random_graphs


def _random_attrs(g, seed):
    rng = SplitMix64(seed)
    return [Fraction(rng.randrange(101) - 50, 1 + rng.randrange(7))
            for _ in range(g.n)]


def _pairs(base_seed, count, **kw):
    for i, g in enumerate(random_graphs(base_seed, count, **kw)):
        yield g, _random_attrs(g, mix(base_seed, 20_000 + i))


def test_shift_invariance():
    for g, a in _pairs(101, 60):
        c = Fraction(7, 3)
        assert singular_gap(g, [v + c for v in a]) == singular_gap(g, a)
        assert list_gap(g, [v + c for v in a]) == list_gap(g, a)


def test_scaling_and_negation():
    for g, a in _pairs(102, 60):
        gap = singular_gap(g, a)
        assert singular_gap(g, [3 * v for v in a]) == 3 * gap
        assert singular_gap(g, [-v for v in a]) == -gap


def test_node_and_delta_forms_agree():
    for g, a in _pairs(103, 60):
        assert singular_gap(g, a) == singular_gap_delta_form(g, a)


def test_list_gap_closed_form():
    # Edge aggregation equals r * sigma_d * sigma_a / mean degree.
    for g, a in _pairs(104, 60):
        d = [float(v) for v in degrees(g)]
        af = [float(v) for v in a]
        n = g.n
        md = sum(d) / n
        ma = sum(af) / n
        sd = (sum((v - md) ** 2 for v in d) / n) ** 0.5
        sa = (sum((v - ma) ** 2 for v in af) / n) ** 0.5
        r = correlation(d, af)
        closed = 0.0 if r is None else r * sd * sa / md
        assert abs(float(list_gap(g, a)) - closed) < 1e-9


def test_degree_attribute_gap_positive():
    for g in random_graphs(105, 60):
        d = list(degrees(g))
        assert singular_gap(g, d) > 0
        assert list_gap(g, d) > 0


def test_affine_degree_attribute_gap_positive():
    for g in random_graphs(106, 60):
        a = [Fraction(5, 2) * d - 7 for d in degrees(g)]
        assert singular_gap(g, a) > 0


def test_r_d_delta_in_unit_interval():
    for g in random_graphs(107, 60):
        r = r_d_delta(g)
        assert 0 < r <= 1.0


def test_pro_graphs_sign_determined():
    # Pro topology: the gap sign always matches the correlation sign.
    found = 0
    for g, a in _pairs(108, 120, n_range=(3, 6)):
        if classify(g).kind != PRO:
            continue
        found += 1
        gap = singular_gap(g, a)
        r = correlation([float(v) for v in degrees(g)], [float(v) for v in a])
        if r is None or abs(r) < 1e-12:
            continue
        assert (gap > 0) == (r > 0) or gap == 0
    assert found >= 10


def test_delta_sums_to_n():
    for g in random_graphs(109, 60):
        assert sum(fraction_delta(g)) == g.n


def test_nonregular_has_distinct_delta():
    for g in random_graphs(110, 60):
        assert len(set(fraction_delta(g))) >= 2


@given(st.lists(st.integers(-100, 100), min_size=5, max_size=5),
       st.integers(-20, 20))
@settings(max_examples=100, deadline=None)
def test_shift_invariance_hypothesis(values, shift):
    g = next(random_graphs(111, 1, n_range=(5, 5)))
    shifted = [v + shift for v in values]
    assert singular_gap(g, shifted) == singular_gap(g, values)


@given(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=9),
                min_size=6, max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
@settings(max_examples=100, deadline=None)
def test_linearity_hypothesis(values, scale):
    g = next(random_graphs(112, 1, n_range=(6, 6)))
    assert singular_gap(g, [scale * v for v in values]) == scale * singular_gap(g, values)

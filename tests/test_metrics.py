import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest

from sgfp.classify import Classification, ThresholdEstimate
from sgfp.construct import example_graph_fig1, example_graph_fig4, path, star
from sgfp.errors import (AllIsolatesError, InvariantBrokenError, LengthMismatchError,
                         NonFiniteOutputError, SgfpError)
from sgfp.graph import build_graph, degrees, kernel
from sgfp.lp import HighCorrelationResult
from sgfp.metrics import (
    correlation,
    gap_report,
    list_gap,
    r_d_delta,
    singular_gap,
    singular_gap_delta_form,
)


def test_second_order_path3():
    g = path(3)
    assert gap_report(g, [1, 2, 3]).s == [2, 2, 2]


def test_second_order_constant_attributes():
    g, _ = example_graph_fig1()
    assert gap_report(g, [7] * 8).s == [7] * 8


def test_second_order_fig1_leaves():
    g, attrs = example_graph_fig1()
    s = gap_report(g, attrs).s
    # The two degree-1 nodes each see a single friend with attribute 3.
    assert s[6] == 3 and s[7] == 3


def test_second_order_length_mismatch():
    with pytest.raises(LengthMismatchError):
        gap_report(path(3), [1, 2])


def test_singular_gap_fig1_exact():
    g, attrs = example_graph_fig1()
    assert singular_gap(g, attrs) == Fraction(-9, 8)


def test_singular_gap_path3_zero():
    assert singular_gap(path(3), [1, 2, 3]) == 0


def test_singular_gap_fig4_negative_sample():
    g, samples = example_graph_fig4()
    assert singular_gap(g, samples[2]) == Fraction(-1, 24)


def test_gap_forms_agree_exactly():
    g, attrs = example_graph_fig1()
    assert singular_gap(g, attrs) == singular_gap_delta_form(g, attrs)


def test_gap_isolates_excluded():
    g = build_graph([(0, 1), (1, 2)], nodes=[0, 1, 2, 3])
    # Node 3 is isolated; value at its slot must not matter.
    gap = singular_gap(g, [1, 2, 3, 999])
    assert gap == singular_gap(path(3), [1, 2, 3])
    report = gap_report(g, [1, 2, 3, 999])
    assert report.excluded_isolates == 1
    with pytest.raises(AllIsolatesError, match="no node has an edge"):
        singular_gap(build_graph([], nodes=[0, 1]), [1, 2])


def test_list_gap_constant_attributes():
    g, _ = example_graph_fig1()
    assert list_gap(g, [5] * 8) == 0


def test_list_gap_a_equals_d():
    g = path(4)
    d = list(degrees(g))
    n = g.n
    mean_d = Fraction(sum(d), n)
    var_d = Fraction(sum((x - mean_d) ** 2 for x in d), n)
    assert list_gap(g, d) == var_d / mean_d
    assert list_gap(g, d) > 0


def test_list_gap_closed_form_fig1():
    g, attrs = example_graph_fig1()
    d = list(degrees(g))
    n = g.n
    r = correlation(d, attrs)
    sd = math.sqrt(sum((x - sum(d) / n) ** 2 for x in d) / n)
    sa = math.sqrt(sum((x - sum(attrs) / n) ** 2 for x in attrs) / n)
    closed = r * sd * sa / (sum(d) / n)
    assert math.isclose(float(list_gap(g, attrs)), closed, rel_tol=1e-12)
    assert list_gap(g, attrs) < 0


def test_correlation_fig1():
    g, attrs = example_graph_fig1()
    r = correlation(list(degrees(g)), attrs)
    assert abs(r - (-17 / math.sqrt(451))) < 1e-12


def test_correlation_fig4_exact_zero():
    g, samples = example_graph_fig4()
    d = list(degrees(g))
    for s in samples:
        assert correlation(d, s) == 0.0


def test_correlation_self_is_one():
    assert correlation([1, 2, 3], [1, 2, 3]) == 1.0


def test_correlation_undefined_on_constant():
    assert correlation([1, 1, 1], [1, 2, 3]) is None


def test_correlation_length_mismatch():
    with pytest.raises(LengthMismatchError):
        correlation([1, 2], [1, 2, 3])


def test_r_d_delta_star_exactly_one():
    for n in (3, 5, 10):
        assert r_d_delta(star(n)) == 1.0


def test_r_d_delta_path5():
    assert abs(r_d_delta(path(5)) - 1 / math.sqrt(1.2)) < 1e-12


def test_r_d_delta_regular_undefined():
    g = build_graph([(0, 1), (1, 2), (2, 0)])
    assert r_d_delta(g) is None


def test_gap_report_json():
    g, attrs = example_graph_fig1()
    payload = json.loads(gap_report(g, attrs, per_node=False).to_json())
    assert payload["n"] == 8 and payload["m"] == 9
    assert math.isclose(payload["singular_gap"], -1.125)
    assert payload["excluded_isolates"] == 0
    assert "s" not in payload
    with_nodes = json.loads(gap_report(g, attrs).to_json())
    assert len(with_nodes["s"]) == 8
    assert len(with_nodes["delta"]) == 8


def old_report_json(report, include_per_node=False):
    """GapReport.to_json as it was when it named every key in a literal."""
    payload = {
        "n": report.n,
        "m": report.m,
        "singular_gap": report.singular_gap,
        "list_gap": report.list_gap,
        "r_da": report.r_da,
        "r_ddelta": report.r_ddelta,
        "excluded_isolates": report.excluded_isolates,
    }
    if include_per_node:
        payload["s"] = [None if v is None else float(v) for v in report.s]
        payload["delta"] = [float(v) for v in report.delta]
    return json.dumps(payload, allow_nan=False)


REPORTS = [
    gap_report(*example_graph_fig1()),
    gap_report(example_graph_fig4()[0], example_graph_fig4()[1][0]),
    gap_report(build_graph([(0, 1), (1, 2)], nodes=range(4)), [1, 2.5, 4, None]),
    gap_report(build_graph([(0, 1), (1, 2), (2, 0)]), [1, 1, 1], per_node=False),
]


def _without_per_node(report):
    return dataclasses.replace(report, s=[], delta=[])


@pytest.mark.parametrize("report", REPORTS)
def test_report_json_matches_the_old_literal(report):
    assert report.to_json() == old_report_json(report, include_per_node=bool(report.s))
    assert _without_per_node(report).to_json() == old_report_json(report)


SCALARS = ("n", "m", "singular_gap", "list_gap", "r_da", "r_ddelta", "excluded_isolates")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_report_json_names_the_first_non_finite_field_as_before(bad):
    report = REPORTS[0]
    for first, later in itertools.combinations_with_replacement(SCALARS, 2):
        broken = dataclasses.replace(report, **{first: bad, later: bad})
        for shown in (broken, _without_per_node(broken)):
            with pytest.raises(NonFiniteOutputError) as info:
                shown.to_json()
            assert info.value.field == first
    broken = dataclasses.replace(report, delta=[1.0, bad] + report.delta[2:])
    with pytest.raises(NonFiniteOutputError) as info:
        broken.to_json()
    assert info.value.field == "delta"


def test_singular_gap_large_float_terms():
    # The exact gap is -1/10; float sums would round at the scale of 1e16.
    assert singular_gap(path(5), [1e16, 1, 3, 1e16, 2]) == -0.1


def test_correlation_of_floats_stays_in_unit_interval():
    # y = 2x exactly in binary, so the exact correlation is 1.
    assert correlation([0.3, 1.1, 0.2, 1.1], [0.6, 2.2, 0.4, 2.2]) == 1.0


def test_float_gap_beyond_the_float_range_is_infinite():
    # Exact gap -2 (n - 2) M / n for leaves at M and the centre at -M.
    assert singular_gap(star(10), [-1.7e308] + [1.7e308] * 9) == -math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_attribute_raises(bad):
    a = [1.0, bad, 2.0, 0.5, 3.0]
    for metric in (singular_gap, singular_gap_delta_form, list_gap, gap_report):
        with pytest.raises(SgfpError):
            metric(path(5), a)
    with pytest.raises(SgfpError):
        correlation(list(degrees(path(5))), a)


def test_singular_gap_cross_check_raises():
    g = path(5)
    k = kernel(g)
    g._kernel = dataclasses.replace(k, y=(k.y[0] + 1,) + k.y[1:])
    for a in ([0.5, 1.0, 3.0, 2.0, 2.0], [1, 2, 3, 4, 5]):
        with pytest.raises(InvariantBrokenError):
            singular_gap(g, a)
        with pytest.raises(InvariantBrokenError):
            gap_report(g, a)


def test_to_json_refuses_non_finite_fields():
    report = dataclasses.replace(gap_report(path(3), [1, 2, 4]), list_gap=-math.inf)
    cases = [
        (report.to_json, "list_gap"),
        (HighCorrelationResult(-0.5, [1.0, math.nan], -1.0, 0.1).to_json, None),
        (lambda: HighCorrelationResult(-0.5, [1.0, math.inf], -1.0, 0.1).to_json(True),
         "witness"),
        (Classification("ProSGFP", None, "fit", math.nan).to_json, "r_ddelta"),
        (ThresholdEstimate(0.5, True, math.inf).to_json, "oracle_max"),
        (ThresholdEstimate(0.5, False, -math.inf).to_json, "oracle_max"),
    ]
    for to_json, field in cases:
        if field is None:
            json.loads(to_json())
            continue
        with pytest.raises(NonFiniteOutputError) as info:
            to_json()
        assert isinstance(info.value, SgfpError) and info.value.field == field

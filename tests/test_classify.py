import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from sgfp.classify import (
    ANTI,
    DEGENERATE,
    PRO,
    ThresholdEstimate,
    attach_pendant_path,
    classify,
    perturb_to_positive_correlation,
    threshold_estimate,
)
from sgfp.construct import example_graph_fig4, knee, path, star
from sgfp.errors import (
    DegenerateGraphError,
    PreconditionViolatedError,
    UnknownNodeError,
)
from sgfp.graph import Graph, build_graph, degrees, delta, kernel
from sgfp.metrics import correlation, r_d_delta, singular_gap
from sgfp.randgen import mix, sample_connected_nonregular

from conftest import affine_fit, every_signature, preferential_attachment, random_graphs


def test_star_pro_with_witness():
    result = classify(star(10))
    assert result.kind == PRO
    x, z = result.witness
    assert x == Fraction(10, 9)
    assert x > 0
    deg = degrees(star(10))
    dl = delta(star(10))
    for d, v in zip(deg, dl):
        assert v == x * d + z


def test_knee_pro():
    assert classify(knee(4)).kind == PRO
    assert classify(knee(7)).kind == PRO


def test_path4_pro_path5_anti():
    assert classify(path(4)).kind == PRO
    assert classify(path(5)).kind == ANTI


def test_equal_degree_unequal_delta_is_anti():
    g = path(5)
    deg = degrees(g)
    dl = delta(g)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)
             if deg[i] == deg[j] and dl[i] != dl[j]]
    assert pairs  # the sufficiency condition really is present
    assert classify(g).kind == ANTI


def test_degenerate_cases():
    triangle = build_graph([(0, 1), (1, 2), (2, 0)])
    assert classify(triangle).kind == DEGENERATE
    two_edges = build_graph([(0, 1), (2, 3)])
    assert classify(two_edges).kind == DEGENERATE
    empty = classify(Graph([]))
    assert (empty.kind, empty.witness, empty.reason) == (DEGENERATE, None, "empty graph")


def test_classify_matches_r_d_delta():
    for g in (star(4), knee(5), path(4), path(5), path(7)):
        result = classify(g)
        r = r_d_delta(g)
        if result.kind == PRO:
            assert r == 1.0
        else:
            assert r < 1.0 - 1e-12


@pytest.mark.parametrize("base", [star(5), knee(4),
                                  build_graph([(0, 1), (1, 2), (2, 0)])])
def test_attach_pendant_path_makes_anti(base):
    grown = attach_pendant_path(base, base.labels[0])
    assert grown.n == base.n + 4
    assert grown.m == base.m + 4
    assert classify(grown).kind == ANTI


def test_attach_pendant_path_unknown_node():
    with pytest.raises(UnknownNodeError):
        attach_pendant_path(star(4), "nope")


def _centered_fig4_failing_sample():
    g, samples = example_graph_fig4()
    a = samples[2]  # gap -1/24, correlation 0
    mean = Fraction(sum(a), len(a))
    return g, [v - mean for v in a]


def test_perturb_produces_positive_correlation_failing_sample():
    g, a = _centered_fig4_failing_sample()
    out = perturb_to_positive_correlation(g, a)
    assert sum(out) == 0
    assert correlation(list(degrees(g)), out) > 0
    assert singular_gap(g, out) < 0


def test_perturb_rejects_nonzero_correlation():
    g, _ = _centered_fig4_failing_sample()
    d = list(degrees(g))
    mean = Fraction(sum(d), len(d))
    centered_d = [v - mean for v in d]
    with pytest.raises(PreconditionViolatedError):
        perturb_to_positive_correlation(g, centered_d)


def test_perturb_rejects_nonnegative_gap():
    g, samples = example_graph_fig4()
    a = samples[1]  # gap +1/24
    mean = Fraction(sum(a), len(a))
    with pytest.raises(PreconditionViolatedError):
        perturb_to_positive_correlation(g, [v - mean for v in a])


def test_perturb_rejects_nonzero_mean():
    g, samples = example_graph_fig4()
    with pytest.raises(PreconditionViolatedError):
        perturb_to_positive_correlation(g, samples[2])


@pytest.mark.parametrize("edges", [
    [(0, 1), (2, 3)],                  # disconnected
    [(0, 1), (1, 2), (2, 3), (3, 0)],  # regular: a 4-cycle
])
def test_perturb_rejects_a_disconnected_or_regular_graph(edges):
    with pytest.raises(PreconditionViolatedError, match="connected and non-regular"):
        perturb_to_positive_correlation(build_graph(edges), [0, 0, 0, 0])


def test_threshold_star_is_zero():
    est = threshold_estimate(star(6))
    assert est.candidate_sup == 0.0
    assert est.oracle_max <= 0.0


def test_threshold_path5():
    est = threshold_estimate(path(5))
    expected = math.sqrt(1 - 1 / 1.2)
    assert abs(est.candidate_sup - expected) < 1e-12
    assert est.validated
    assert est.oracle_max <= est.candidate_sup + 1e-9
    assert est.oracle_max >= est.candidate_sup - 1e-3


def test_threshold_below_one():
    for g in (path(5), path(7), attach_pendant_path(star(4), 0)):
        est = threshold_estimate(g)
        assert est.candidate_sup < 1.0


def test_threshold_rejects_regular():
    triangle = build_graph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DegenerateGraphError):
        threshold_estimate(triangle)
    disconnected = build_graph([(0, 1), (1, 2), (3, 4)])  # and non-regular
    with pytest.raises(DegenerateGraphError):
        threshold_estimate(disconnected)


def _threshold_reference(g, grid):
    """The boundary walk one angle at a time, with the generic correlation."""
    cls = classify(g)
    if cls.kind == PRO:
        return ThresholdEstimate(candidate_sup=0.0, validated=True, oracle_max=0.0)
    candidate = math.sqrt(max(0.0, 1.0 - cls.r_ddelta * cls.r_ddelta))
    k = kernel(g)
    deg = np.array(k.deg, dtype=float)
    dl = np.array(k.delta)
    oracle_max = -math.inf
    tau = deg - deg.mean()
    tau /= np.linalg.norm(tau)
    dc = dl - dl.mean()
    dc_norm = np.linalg.norm(dc)
    proj = tau - (float(dc @ tau) / (dc_norm ** 2)) * dc
    pnorm = np.linalg.norm(proj)
    if pnorm > 1e-14:
        a_star = proj / pnorm
        v = -dc / dc_norm
        for theta in np.geomspace(1e-8, math.pi / 2, num=grid):
            a = math.cos(theta) * a_star + math.sin(theta) * v
            if float(dl @ a) / g.n > -1e-9:
                continue
            r = correlation(list(deg), list(a))
            if r is not None:
                oracle_max = max(oracle_max, r)
    validated = (candidate - 1e-3 - 1e-12) <= oracle_max <= (candidate + 1e-12)
    return ThresholdEstimate(candidate_sup=candidate, validated=validated,
                             oracle_max=oracle_max)


def _criterion_6_anti_graphs(count):
    i = 0
    while count:
        n = 4 + mix(202, 10_000 + i) % 7
        g = sample_connected_nonregular(n, 0.5, mix(202, i))
        i += 1
        if classify(g).kind == ANTI:
            count -= 1
            yield g


def _witness(g):
    """The certificate's integer witness K (c d_c - a y_c) - y_c, built out."""
    k = kernel(g)
    n, sum_d, sum_y = g.n, sum(k.deg), sum(k.y)
    d_c = [n * v - sum_d for v in k.deg]
    y_c = [n * v - sum_y for v in k.y]
    a = sum(map(mul, d_c, y_c)) // n
    b = sum(v * v for v in d_c) // n
    c = sum(v * v for v in y_c) // n
    big_k = (a // (b * c - a * a) + 1) << 64
    return [big_k * (c * u - a * v) - v for u, v in zip(d_c, y_c)]


def _assert_certificate(g, grids):
    est = threshold_estimate(g)
    for grid in grids:
        ref = _threshold_reference(g, grid)
        assert abs(est.candidate_sup - ref.candidate_sup) <= 1e-14
        assert est.oracle_max >= ref.oracle_max - 1e-12
        assert est.oracle_max <= est.candidate_sup + 1e-15
        assert est.validated or not ref.validated
    if classify(g).kind == ANTI:
        w = _witness(g)
        assert singular_gap(g, w) < 0
        assert abs(correlation(list(degrees(g)), w) - est.oracle_max) <= 2e-16


def test_threshold_certificate_agrees_with_the_walk():
    for g in (*_criterion_6_anti_graphs(200), star(6), knee(5), path(4), path(5), path(7),
              path(12)):
        _assert_certificate(g, (2, 64, 256))


def test_threshold_certificate_agrees_with_the_walk_at_scale():
    _assert_certificate(preferential_attachment(10_000, seed=7), (256,))


def test_every_signature_has_r_above_0_and_below_1_exactly_when_anti():
    # a > 0 on every signature, and m > 0 exactly on the anti ones, so the
    # certificate's InvariantBrokenError cannot be reached.
    for n in range(3, 8):
        for deg, _, y in every_signature(n):
            sum_d, sum_y = sum(deg), sum(y)
            a = n * sum(map(mul, deg, y)) - sum_d * sum_y
            b = n * sum(v * v for v in deg) - sum_d * sum_d
            c = n * sum(v * v for v in y) - sum_y * sum_y
            assert a > 0
            assert (b * c - a * a > 0) == (affine_fit(deg, y) is None)


def test_a_is_positive_on_the_criterion_5_stream():
    # As on every census signature (above): a = n L sum over edges of
    # (d_i - d_j)^2 / (d_i d_j) > 0 on a connected non-regular graph, so
    # classify and the census test pro by a * a = b * c alone.
    stream = list(random_graphs(201, 1000, n_range=(4, 10)))
    assert min(kernel(g).moments[0] for g in stream) > 0
    assert {classify(g).reason for g in stream} == {
        "delta = x*d + z exactly with x > 0",
        "reciprocal-degree sums are not an affine function of degree"}

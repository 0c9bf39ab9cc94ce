"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS line
when its assertions hold. Run with `pytest -s tests/test_acceptance.py`
to see the lines; the run takes about 4 s on a 2-core host, most of it in
the property suite, the LP batches and the 10,000-sample census.
"""

import math
import time
from fractions import Fraction

from sgfp.classify import ANTI, PRO, attach_pendant_path, classify, threshold_estimate
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
from sgfp.experiments import census, r_high_loose, strip_isolates
from sgfp.graph import degrees
from sgfp.lp import max_failing_correlation
from sgfp.metrics import (
    correlation,
    list_gap,
    r_d_delta,
    singular_gap,
    singular_gap_delta_form,
)
from sgfp.randgen import (
    SplitMix64,
    configuration_rewire,
    gnp,
    mix,
    sample_connected_nonregular,
)

from conftest import random_graphs


def _report(n, text):
    print(f"\ncriterion {n}: PASS  {text}")


def test_criterion_1_worked_example():
    g, attrs = example_graph_fig1()
    # Warm pass, then timed pass.
    singular_gap(g, attrs)
    start = time.perf_counter()
    gap = singular_gap(g, attrs)
    r = correlation(list(degrees(g)), attrs)
    elapsed = time.perf_counter() - start
    assert gap == Fraction(-9, 8)
    assert abs(r - (-17 / math.sqrt(451))) < 1e-12
    assert elapsed < 0.001
    _report(1, f"gap = -9/8 exact, r within 1e-12, {elapsed * 1e6:.0f} us")


def test_criterion_2_zero_gap_examples():
    assert singular_gap(path(3), [1, 2, 3]) == 0
    g, samples = example_graph_fig4()
    d = list(degrees(g))
    gaps = [singular_gap(g, s) for s in samples]
    assert [correlation(d, s) for s in samples] == [0.0, 0.0, 0.0]
    assert gaps == [0, Fraction(1, 24), Fraction(-1, 24)]
    _report(2, "path(3) gap 0; uncorrelated samples give gaps (0, 1/24, -1/24)")


def test_criterion_3_classification():
    for n in range(3, 51):
        assert classify(star(n)).kind == PRO
        assert classify(knee(n)).kind == PRO
    assert classify(path(4)).kind == PRO
    assert classify(path(5)).kind == ANTI
    bases = [star(5), knee(6), path(4),
             sample_connected_nonregular(8, 0.5, 12345)]
    for base in bases:
        assert classify(attach_pendant_path(base, base.labels[0])).kind == ANTI
    _report(3, "star/knee pro for n=3..50; path(4) pro, path(5) anti; "
               "pendant path forces anti")


def test_criterion_4_census():
    start = time.perf_counter()
    samples = 10000
    records = {n: census(n, samples, seed=0)[0] for n in range(3, 8)}
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    expected = {3: (1.0, 0.0), 4: (0.6458, 0.02), 5: (0.0900, 0.01),
                6: (0.0620, 0.01), 7: (0.0023, 0.003)}
    for n, (target, tol) in expected.items():
        rec = records[n]
        if tol == 0.0:
            assert rec.pro_proportion == target
        else:
            assert abs(rec.pro_proportion - target) <= tol
        if rec.pro_count:
            assert rec.mean_r_ddelta_pro == 1.0
        if rec.pro_count < samples:
            assert 0.90 <= rec.mean_r_ddelta_anti <= 0.98
    props = ", ".join(f"n={n}: {records[n].pro_proportion:.4f}"
                      for n in range(3, 8))
    _report(4, f"{props} ({elapsed:.0f} s)")


def test_criterion_5_lp_coherence():
    checked = 0
    for g in random_graphs(201, 1000, n_range=(4, 10)):
        kind = classify(g).kind
        res = max_failing_correlation(g, 0.001)
        assert (res.r_high > 0) == (kind == ANTI)
        # Independent re-verification of the witness.
        a = res.witness
        assert abs(sum(a)) < 1e-9
        gap = float(singular_gap_delta_form(g, a))
        assert gap < 0
        assert abs(gap - res.gap) < 1e-9
        assert abs(correlation(list(degrees(g)), a) - res.r_high) < 1e-9
        r_small = max_failing_correlation(g, 1e-6).r_high
        assert r_small >= res.r_high - 1e-9
        checked += 1
    assert checked == 1000
    _report(5, "1000 graphs: r_high > 0 iff anti; witnesses re-verified; "
               "epsilon monotone")


def test_criterion_6_threshold_validation():
    anti_checked = 0
    pro_checked = 0
    worst = 0.0
    i = 0
    while anti_checked < 200:
        n = 4 + mix(202, 10_000 + i) % 7
        g = sample_connected_nonregular(n, 0.5, mix(202, i))
        i += 1
        est = threshold_estimate(g)
        if classify(g).kind == PRO:
            assert est.candidate_sup == 0.0
            pro_checked += 1
            continue
        expected = math.sqrt(1 - r_d_delta(g) ** 2)
        assert abs(est.candidate_sup - expected) < 1e-12
        assert est.oracle_max <= est.candidate_sup + 1e-6
        assert est.candidate_sup - est.oracle_max <= 0.05
        worst = max(worst, est.candidate_sup - est.oracle_max)
        anti_checked += 1
    _report(6, f"200 anti graphs: oracle within {worst:.2e} of "
               f"sqrt(1 - r_dd^2); {pro_checked} pro graphs at 0")


def test_criterion_7_growth():
    start = time.perf_counter()
    state = initial_growth_state()
    for _ in range(100):
        state = grow_step(state)
        k = state.k
        gap = singular_gap(state.graph, list(state.attrs))
        assert gap * (8 + 4 * k) == -9
        measured = correlation(list(degrees(state.graph)), list(state.attrs))
        assert abs(measured - growth_correlation(k)) < 1e-12
    crossing = next(k for k in range(1, 10**6) if growth_correlation(k) > 0.99)
    assert growth_correlation(crossing - 1) <= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(7, f"k=1..100 exact gap invariant, r matches closed form, "
               f"crosses 0.99 at k={crossing} ({elapsed:.1f} s)")


def test_criterion_8_property_suite():
    count = 0
    for i, g in enumerate(random_graphs(203, 1000, n_range=(4, 10))):
        rng = SplitMix64(mix(203, 50_000 + i))
        a = [Fraction(rng.randrange(101) - 50, 1 + rng.randrange(7))
             for _ in range(g.n)]
        gap = singular_gap(g, a)
        assert singular_gap(g, [v + Fraction(5, 3) for v in a]) == gap
        assert singular_gap(g, [3 * v for v in a]) == 3 * gap
        assert singular_gap(g, [-v for v in a]) == -gap
        assert singular_gap_delta_form(g, a) == gap
        d = list(degrees(g))
        af = [float(v) for v in a]
        r = correlation(d, af)
        n = g.n
        md = sum(d) / n
        sd = (sum((v - md) ** 2 for v in d) / n) ** 0.5
        ma = sum(af) / n
        sa = (sum((v - ma) ** 2 for v in af) / n) ** 0.5
        closed = 0.0 if r is None else r * sd * sa / md
        assert abs(float(list_gap(g, a)) - closed) < 1e-9
        assert singular_gap(g, d) > 0
        assert singular_gap(g, [2 * v + 7 for v in d]) > 0
        rdd = r_d_delta(g)
        assert 0 < rdd <= 1.0
        if classify(g).kind == PRO and r is not None and abs(r) > 1e-12:
            assert gap == 0 or (gap > 0) == (r > 0)
        count += 1
    assert count == 1000
    _report(8, "1000 graph/attribute pairs: all gap invariants hold")


def test_criterion_9_rewiring():
    originals_rh, originals_rdd = [], []
    rewired_rh, rewired_rdd = [], []
    produced = 0
    i = 0
    while produced < 50:
        n = 12 + mix(204, 10_000 + i) % 29
        p = 0.15 + (mix(204, 20_000 + i) % 1000) / 1000 * 0.45
        g = strip_isolates(gnp(n, p, mix(204, i)))
        i += 1
        rh = r_high_loose(g, 0.001)
        rdd = r_d_delta(g)
        if rh is None or rdd is None:
            continue
        rew = strip_isolates(configuration_rewire(g, mix(204, 30_000 + i))[0])
        rh2 = r_high_loose(rew, 0.001) if rew.n >= 2 else None
        rdd2 = r_d_delta(rew) if rew.n >= 2 else None
        if rh2 is None or rdd2 is None:
            continue
        originals_rh.append(rh)
        originals_rdd.append(rdd)
        rewired_rh.append(rh2)
        rewired_rdd.append(rdd2)
        produced += 1
    c_orig = correlation(originals_rh, originals_rdd)
    c_rew = correlation(rewired_rh, rewired_rdd)
    assert c_orig <= -0.8
    assert c_rew <= -0.8
    _report(9, f"corr(r_high, r_dd) = {c_orig:.3f} original, "
               f"{c_rew:.3f} rewired (50 graphs)")

"""The failing-correlation LP and its exact two-row solver.

The only LP this package poses is

    maximize d . a  subject to  sum(a) = 0,  delta . a <= -epsilon,  a in [-1, 1]^n.

Its dual is min over mu and lambda >= 0 of sum_i |d_i - mu - lambda delta_i|
- lambda epsilon: a least-absolute-deviation fit of d on (1, delta) (the
LAD-as-LP duality of Koenker and Bassett, 1978). For a fixed lambda the
best mu is a median of c = d - lambda delta, so the dual is a convex
piecewise-linear function g(lambda) whose one-sided slopes are
-(delta . a) - epsilon over the Lagrangian maximizers a: a_i = sign(c_i - mu)
off the set T of nodes tied with the median, and a greedy fill of T.
The solver descends g by pivoting on a median node and moving lambda to
the weighted median of the slopes through it (the descent step of LAD
regression), until the slopes bracket zero. Any fill of T between the
two extreme ones is then optimal; the witness walks from one extreme
toward the other until delta . a = -epsilon (or as far as the walk goes
when the optimum has lambda = 0), ending near a vertex of the feasible
polytope as a simplex would. There is no size cap.

The descent runs from lambda = 0 in the kernel's integers (:func:`_solve_exact`),
so the witness and r_high depend only on the multiset of (d_i, L delta_i)
pairs, not on the node labels. Floats only save exact work: on larger
graphs they decide each pass, slope sign and slope step where a proven
error bound allows (a static filter as in Shewchuk 1997). :func:`_r_high`
takes one graph or one kernel and decides when, over the nodes with edges:
a graph's delta is summed from it in floats, with no big-integer division,
a kernel's is :attr:`Kernel.delta`, y / L correctly rounded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import itemgetter, mul
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGraphError,
    InfeasibleAtEpsilonError,
    InvariantBrokenError,
    PreconditionViolatedError,
)
from .graph import Graph, Kernel, _float_delta, _pearson, is_connected, is_regular, kernel
from .metrics import _json


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise PreconditionViolatedError("epsilon must be positive and finite")


def _int_fill(k: int, total: int) -> list[int]:
    """k values in {-1, 0, 1} summing to `total`, |total| <= k: +1 first."""
    ones, zero = divmod(total + k, 2)
    return [1] * ones + [0] * zero + [-1] * (k - ones - zero)


def _filtered_pass(deg: Sequence[int], y: Sequence[int], big_l: int, d: np.ndarray,
                   dl: np.ndarray, d_max: int, dl_max: float, p: int, q: int):
    """The exact pass of :func:`_solve_exact` at kappa = p / q: (a, the tied
    nodes in y order, -sum(a)), a in int8, or None when floats cannot place
    the median. At kappa = 0, c = d: signs and ties come from the int64
    degrees. Otherwise, with lambda = kappa L rounded and u = 2**-53, each
    float c / q = d - lambda delta is within u (d_max + 3.03 lambda delta_max
    + 1.03 lambda rho) < err / 2 of the exact one (rho = d_max delta_max
    bounds each d_i delta_i; see :func:`_solve_exact`), and so is their
    median: nodes beyond 2 err from the float median are decided in floats,
    the rest in integers. The float median is the r-th float, so at most r
    floats lie 2 err below it and at least r + 1 no more than 2 err above:
    the exact median's rank in that band is in range. d_max and dl_max are
    the largest d and delta, found once per LP."""
    r = (len(d) - 1) // 2
    if p == 0:
        mu = np.partition(d, r)[r]
        a = np.sign(d - mu).astype(np.int8)
        tie = np.flatnonzero(d == mu).tolist()
    elif (p * big_l).bit_length() > q.bit_length() + 960:  # lambda delta may overflow
        return None
    else:
        lam = p * big_l / q
        cf = d - lam * dl
        mf = np.partition(cf, r)[r]
        err = 2.0 ** -50 * (d_max + lam * dl_max * (1 + d_max))
        above, below = cf > mf + 2 * err, cf < mf - 2 * err
        band = np.flatnonzero(~(above | below)).tolist()
        c = [q * deg[i] - p * y[i] for i in band]
        mu = sorted(c)[r - int(below.sum())]
        a = above.astype(np.int8) - below
        tie = [i for i, v in zip(band, c) if v == mu]
        if len(tie) < len(band):
            a[band] = [(v > mu) - (v < mu) for v in c]
    return a, sorted(tie, key=y.__getitem__), -int(a.sum())


def _weighted_median(x: np.ndarray, w: np.ndarray, target: float) -> int:
    """The index at which a cumulative sum of the weights w > 0 in ascending
    x first reaches `target` (the last index if it never does), found by
    selection (Gurwitz 1990): halve the candidates at their median x until
    at most 2048 are left, then sort those."""
    below, idx = 0.0, None  # idx: the candidates' indices, None while all are
    while len(x) > 2048:
        part = np.argpartition(x, len(x) // 2)
        keep = part[:len(x) // 2]
        w_low = w[keep].sum()
        if below + w_low < target:
            keep, below = part[len(x) // 2:], below + w_low
        x, w, idx = x[keep], w[keep], keep if idx is None else idx[keep]
    order = np.argsort(x)
    j = order[min(int(np.searchsorted(below + np.cumsum(w[order]), target)), len(x) - 1)]
    return j if idx is None else idx[j]


def _filtered_step(deg: Sequence[int], y: Sequence[int], d: np.ndarray, dl: np.ndarray,
                   d_max: int, dl_max: float, piv: int,
                   epsilon: float) -> Optional[tuple[int, int]]:
    """The slope step of :func:`_solve_exact` at pivot `piv`: a line
    (d_k - d_p, y_k - y_p) of the weighted median slope, or None when floats
    cannot show one. Each float delta is within 1.02 u rho of y / L (u =
    2**-53, rho = d_max delta_max; see :func:`_solve_exact`), so each float
    w_k = delta_k - delta_p is within E / 2 of (y_k - y_p) / L, E = 2**-50
    rho; if |w_k| > 2 E the float slope lambda_k is within 8 E |lambda_k| /
    |w_k| of the exact one, else y_k must equal y_p (the line is left out).
    Lines whose intervals meet the float median's must share its slope, and
    the weights below and not above it straddle the target by n (E + 2**-50
    W), a bound on float sums."""
    big_e = 2.0 ** -50 * d_max * dl_max
    dp, yp = deg[piv], y[piv]
    w = dl - dl[piv]
    far = np.abs(w) > 2 * big_e
    if any(y[k] != yp for k in np.flatnonzero(~far).tolist()):
        return None
    idx = np.flatnonzero(far)
    w = w[idx]
    aw = np.abs(w)
    lam = (d[idx] - d[piv]) / w
    err = np.abs(lam) / aw * (8 * big_e)
    total = aw.sum()
    target = (total + epsilon) / 2
    i = _weighted_median(lam, aw, target)
    off, reach = lam - lam[i], err + err[i]
    mid = np.abs(off) <= reach
    w_above = aw @ (off > reach)
    margin = len(dl) * (big_e + 2.0 ** -50 * total)
    num, wi = deg[idx[i]] - dp, y[idx[i]] - yp
    if (not total - aw @ mid - w_above + margin < target <= total - w_above - margin
            or any((deg[j] - dp) * wi != num * (y[j] - yp) for j in idx[mid].tolist())):
        return None
    return num, wi


def _solve_exact(deg: Sequence[int], y: Sequence[int], big_l: int, epsilon: float,
                 arrays: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 ) -> Optional[tuple[Sequence[int], int, dict[int, int], int]]:
    """The failing-correlation LP in exact arithmetic, on the kernel's integers.

    With y = L * delta the LP's row is y . a <= -epsilon * L, and
    epsilon * L = e / s exactly (s > 0). The descent runs in
    kappa = lambda / L = p / q, so c = q * d - p * y is an integer vector
    whose median and tie set are exact, and the one-sided slopes of g are
    decided by the sign of the integer s * (y . a) + e.

    With `arrays` = (d, delta) in numpy, floats decide what they provably can.
    Each float delta_i need only be within 1.01 u d_i delta_i of y_i / L (u =
    2**-53): a sum of the d_i rounded 1 / d_j, in any order, is (Higham 2002,
    section 4.2; a correctly rounded delta_i is too).
    Returns None if the LP is infeasible, else an optimal a as (a, m, fill,
    y . a * m): a_i in {-1, 1} off the tied nodes, 0 on them, and fill[i] / m
    there, in {-1, 0, 1} but for the two nodes of at most one partial swap.
    """
    _check_epsilon(epsilon)
    e, s = epsilon.as_integer_ratio()
    e *= big_l
    n = len(deg)
    # Feasible iff the least y . a over {sum(a) = 0, box} (+1 on the n // 2
    # smallest y, -1 on the n // 2 largest) reaches -e / s. In floats, any
    # y . a / L + epsilon with a in the box is off by less than tol: by
    # 1.01 u sum(d_i delta_i) < 1.01 u n sum(delta) from the float deltas,
    # and about u n sum(delta) from the float sums. The halves the floats
    # pick have an exact sum at most twice the first bound above the least.
    if arrays:  # the filters also take the largest d and delta, fixed for this LP
        arrays = (*arrays, int(arrays[0].max()), float(arrays[1].max()))
        dl = np.partition(arrays[1], n // 2)
        tol = 2.0 ** -50 * n * dl.sum()
        gap = dl[:n // 2].sum() - dl[n - n // 2:].sum() + epsilon
    if not arrays or abs(gap) <= tol:
        y_sorted = sorted(y)
        gap = s * (sum(y_sorted[:n // 2]) - sum(y_sorted[n - n // 2:])) + e
    if gap > 0:
        return None
    # Bounds are integer pairs (p, q), q >= 0, and hi = (1, 0) is infinity;
    # lo = -1 until a kappa >= 0 is known to lie below the optimum.
    num, w, lo, hi = 0, 1, (-1, 1), (1, 0)
    for _ in range(1000):
        g = math.gcd(num, w) if w > 0 else -math.gcd(num, w)  # kappa = max(num / w, 0)
        p, q = (num // g, w // g) if num * w > 0 else (0, 1)
        if not lo[0] * q < p * lo[1] or not p * hi[1] < hi[0] * q:
            break
        found = arrays and _filtered_pass(deg, y, big_l, *arrays, p, q)
        if not found:  # the exact pass
            c = [q * di - p * yi for di, yi in zip(deg, y)]
            mu = sorted(c)[(n - 1) // 2]
            a = [(v > mu) - (v < mu) for v in c]
            tie = [i for i, v in enumerate(c) if v == mu]
            found = a, sorted(tie, key=y.__getitem__), -sum(a)
        a, up, total = found  # up: the tied nodes by y; reversed, the maximizer at kappa-
        # h_up, h_down = -(right, left slope of g) * s L: each is y . a / L +
        # epsilon for an a in the box, so in floats within tol * s L. The fill
        # (_int_fill) is +1 on the first `ones` tied nodes, 0 on the next
        # `zero` and -1 on the rest. Floats only show h_up > 0, or both < 0
        # at kappa > 0; neither ends the descent, so y . a is summed exactly
        # whenever it may end.
        if arrays:
            ones, zero = divmod(total + len(up), 2)
            t, f = arrays[1][up], arrays[1] @ a + epsilon
            h_up = f + t[:ones].sum() - t[ones + zero:].sum()
            h_down = f + t[len(up) - ones:].sum() - t[:len(up) - ones - zero].sum()
        if not arrays or not (h_up > tol or p and max(h_up, h_down) < -tol):
            ys, vals = [y[i] for i in up], _int_fill(len(up), total)
            ya = (sum(compress(y, (a > 0).tolist())) - sum(compress(y, (a < 0).tolist()))
                  if isinstance(a, np.ndarray) else sum(map(mul, y, a)))
            h_up = s * (ya + sum(map(mul, ys, vals))) + e
            h_down = s * (ya + sum(map(mul, reversed(ys), vals))) + e
            # At kappa > 0 the left slope of g (from the kappa- maximizer) must be <= 0.
            if h_up <= 0 and (p == 0 or h_down >= 0):
                # Any fill between the two is optimal. Swap the values of the
                # i-th lowest- and i-th highest-y tied nodes, outermost pair
                # first, until s * (y . a) + e rises to 0 (or as far as the
                # walk goes); a part-way swap leaves two values off a multiple of m.
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
                # Tied nodes with equal y (so equal d) take their values largest
                # first in index order, from whichever side the descent came.
                vals = [-v for _, v in sorted(zip(ys, (-v for v in vals)))]
                return a, m, dict(zip(up, vals)), m * ya + sum(map(mul, ys, vals))
        j = min((total + len(up)) // 2, len(up) - 1)
        if h_up > 0:
            lo, piv = (p, q), up[j]
        else:
            hi, piv = (p, q), up[-1 - j]
        # Pivot on the median node of the side g descends to; the line
        # through it is best at the weighted median of its slopes
        # (d_k - d_p) / (y_k - y_p), shifted by e. Unless floats show which,
        # the slopes are sorted by their monotone floats, and those tied with
        # the median's and not all equal as exact rationals.
        found = arrays and _filtered_step(deg, y, *arrays, piv, epsilon)
        if found:
            num, w = found
            continue
        dp, yp = deg[piv], y[piv]
        lines = sorted([((dk - dp) / w, dk - dp, w) for dk, yk in zip(deg, y) if (w := yk - yp)])
        cum = list(accumulate(map(abs, map(itemgetter(2), lines))))
        need = -(-(s * cum[-1] + e) // (2 * s))  # the least cum with 2 s cum >= s W + e
        f, num, w = lines[min(bisect_left(cum, need), len(cum) - 1)]
        first, last = bisect_left(lines, (f,)), bisect_left(lines, (f, math.inf))
        if last - first > 1 and any(nk * w != num * wk for _, nk, wk in lines[first:last]):
            cum_w = cum[first - 1] if first else 0
            for _, num, w in sorted(lines[first:last], key=lambda ln: Fraction(ln[1], ln[2])):
                cum_w += abs(w)
                if cum_w >= need:
                    break
    raise InvariantBrokenError(f"exact two-row LP descent stalled at kappa={p}/{q}")


@dataclass
class HighCorrelationResult:
    """Best failing-correlation witness found by the LP at a given slack."""

    r_high: float
    witness: list[float]
    gap: float
    epsilon: float

    def to_json(self, include_witness: bool = False) -> str:
        payload = {"r_high": self.r_high, "gap": self.gap, "epsilon": self.epsilon}
        if include_witness:
            payload["witness"] = list(self.witness)
        return _json(payload)


# From this many nodes on, floats filter the descent; below, numpy costs more.
_FLOAT_MIN_N = 100


def _r_high(src: Graph | Kernel, epsilon: float):
    """(r_high, the result of :func:`_solve_exact`) over the nodes with edges
    of a graph or kernel, or None when the LP is infeasible at `epsilon`, as
    when their degrees are all equal (delta = 1 on each).
    From _FLOAT_MIN_N such nodes on, floats filter the descent with a graph's
    :func:`graph._float_delta` or a kernel's :attr:`Kernel.delta`."""
    k = kernel(src) if isinstance(src, Graph) else src
    deg, y = k.active() if 0 in k.deg else (k.deg, k.y)
    n, d = len(deg), None  # d: the degrees in numpy when floats filter
    if n >= _FLOAT_MIN_N:
        d, dl = ((src.deg, _float_delta(src)) if isinstance(src, Graph)
                 else (np.array(k.deg), np.array(k.delta)))
        if n < len(d):
            d, dl = d[d > 0], dl[d > 0]
    found = _solve_exact(deg, y, k.lcm, epsilon, None if d is None else (d, dl))
    if found is None:
        return None
    a, m, fill, _ = found
    # m * (d . a), and m * m * |a|^2; a sums to 0.
    if d is None:
        da, sum_d, sum_dd = sum(map(mul, deg, a)), sum(deg), sum(map(mul, deg, deg))
    else:
        da, sum_d, sum_dd = int(d @ a), int(d.sum()), int(d @ d)
    da = m * da + sum(deg[i] * v for i, v in fill.items())
    aa = m * m * (n - len(fill)) + sum(v * v for v in fill.values())
    r_high = _pearson(n, n * da, n * sum_dd - sum_d * sum_d, n * aa, 1, m)
    return r_high, found


def _failing_witness(src: Graph | Kernel, epsilon: float) -> Optional[HighCorrelationResult]:
    """The failing-correlation LP of a graph or kernel, as :func:`_r_high`
    poses it, with its witness over the nodes with edges; None when it is
    infeasible at `epsilon`."""
    res = _r_high(src, epsilon)
    if res is None:
        return None
    r_high, (a, m, fill, ya) = res
    witness = a.astype(float).tolist() if isinstance(a, np.ndarray) else list(map(float, a))
    for i, v in fill.items():
        witness[i] = v / m  # int / int division is correctly rounded
    # ya < 0: a gap that rounds to -0.0 is reported as -5e-324 instead.
    big_l = (kernel(src) if isinstance(src, Graph) else src).lcm
    gap = ya / (big_l * m * len(witness)) or math.nextafter(0.0, -math.inf)
    return HighCorrelationResult(r_high=r_high, witness=witness, gap=gap, epsilon=epsilon)


def max_failing_correlation(g: Graph, epsilon: float = 0.001) -> HighCorrelationResult:
    """LP search for a mean-zero attribute sample with a negative gap.

    Maximizes the degree-weighted sum of attributes subject to zero mean,
    gap at most -epsilon/n, and box bounds [-1, 1]; reports the Pearson
    correlation of the witness with the degree sequence (scale-invariant,
    so the box normalization does not bias the reported value).
    """
    if not is_connected(g) or is_regular(g):
        raise DegenerateGraphError("graph must be connected and non-regular")
    result = _failing_witness(g, epsilon)
    if result is None:
        raise InfeasibleAtEpsilonError(epsilon)
    return result

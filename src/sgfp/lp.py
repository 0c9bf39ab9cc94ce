"""The failing-correlation LP and its two-row solver.

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
polytope as a simplex would. Each step is O(n log n) and there is no size
cap.

Up to `_EXACT_MAX_N` nodes the same descent runs exactly, in integers from
the graph's kernel (:func:`_solve_exact`): there the witness, and so
r_high, depend only on the multiset of (d_i, L delta_i) pairs, not on the
node labels. Larger graphs use the float solver (:func:`_solve_two_row`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGraphError,
    InfeasibleAtEpsilonError,
    InvariantBrokenError,
    PreconditionViolatedError,
)
from .graph import Graph, Kernel, exact_correlation, is_connected, kernel
from .metrics import _json, correlation


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise PreconditionViolatedError("epsilon must be positive and finite")


def _fill(k: int, total: float) -> np.ndarray:
    """k values in [-1, 1] summing to `total`: +1 first, then -1."""
    return np.clip(total + k - 2 * np.arange(k), 0, 2) - 1.0


def _vertex_between(a: np.ndarray, up: np.ndarray, dl: np.ndarray, need: float) -> np.ndarray:
    """Raise delta . a by `need` (or as far as it goes) within the tied set.

    `a` holds the fill of the tied nodes `up` (sorted by delta) that
    minimizes delta . a. Swapping the values of the i-th lowest- and
    i-th highest-delta tied nodes, outermost pair first, walks to the fill
    that maximizes it; the walk stops part-way through one swap, so at
    most two tied nodes end strictly inside the box.
    """
    vals = a[up]
    half = len(up) // 2
    lo_i, hi_i = np.arange(half), len(up) - 1 - np.arange(half)
    gain = (vals[lo_i] - vals[hi_i]) * (dl[up[hi_i]] - dl[up[lo_i]])
    cum = np.cumsum(gain)
    m = int(np.searchsorted(cum, need))
    swapped = vals.copy()
    swapped[lo_i[:m]], swapped[hi_i[:m]] = vals[hi_i[:m]], vals[lo_i[:m]]
    if m < half and gain[m] > 0:
        part = (need - (cum[m - 1] if m else 0.0)) / gain[m]
        shift = part * (vals[hi_i[m]] - vals[lo_i[m]])
        swapped[lo_i[m]] += shift
        swapped[hi_i[m]] -= shift
    out = a.copy()
    out[up] = swapped
    return out


def _solve_two_row(d: np.ndarray, dl: np.ndarray, epsilon: float) -> Optional[np.ndarray]:
    """An optimal a of the failing-correlation LP for degrees d and
    reciprocal-degree sums dl, or None when it is infeasible.

    Deterministic: ties are broken by delta, then by node index.
    """
    _check_epsilon(epsilon)
    n = len(d)
    # Feasible iff min delta . a over {sum(a) = 0, box} reaches -epsilon.
    a_min = np.empty(n)
    a_min[np.argsort(dl, kind="stable")] = _fill(n, 0.0)
    slack_tol = 1e-13 * np.abs(dl).sum()
    if dl @ a_min > -epsilon + slack_tol:
        return None
    d_max, dl_max = np.abs(d).max(), np.abs(dl).max()
    lo, hi, lam = 0.0, np.inf, 0.0
    for _ in range(1000):  # g strictly decreases per step; a few steps in practice
        c = d - lam * dl
        mu = np.partition(c, (n - 1) // 2)[(n - 1) // 2]
        r = c - mu
        tied = np.abs(r) <= 1e-11 * (d_max + lam * dl_max)
        a = np.sign(r)
        a[tied] = 0.0
        tie = np.flatnonzero(tied)
        total = -a.sum()
        up = tie[np.argsort(dl[tie], kind="stable")]     # maximizer at lambda+
        down = tie[np.argsort(-dl[tie], kind="stable")]  # maximizer at lambda-
        fill = _fill(len(tie), total)
        a_up, a_down = a.copy(), a
        a_up[up] = fill
        a_down[down] = fill
        h_up = dl @ a_up + epsilon      # -(right slope of g)
        h_down = dl @ a_down + epsilon  # -(left slope of g)
        if h_up <= slack_tol and (lam == 0.0 or h_down >= -slack_tol):
            return _vertex_between(a_up, up, dl, max(0.0, -h_up))
        # Pivot on the median node of the side g descends to; the line
        # through it is best at the weighted median of the slopes to the
        # other nodes, shifted by epsilon.
        j = min(int(total + len(tie)) // 2, len(tie) - 1)
        if h_up > slack_tol:
            lo, p = lam, up[j]
        else:
            hi, p = lam, down[j]
        w = dl - dl[p]
        off = w != 0
        slopes = (d[off] - d[p]) / w[off]
        order = np.argsort(slopes, kind="stable")
        cum = np.cumsum(np.abs(w[off])[order])
        k = min(int(np.searchsorted(2 * cum, cum[-1] + epsilon)), len(cum) - 1)
        step = float(slopes[order[k]])
        if not lo < step < hi:
            break
        lam = step
    raise InvariantBrokenError(f"two-row LP descent stalled at lambda={lam}")


def _int_fill(k: int, total: int) -> list[int]:
    """:func:`_fill` for an integer total: k values in {-1, 0, 1}."""
    return [min(max(total + k - 2 * i, 0), 2) - 1 for i in range(k)]


def _vertex_between_exact(a: list[int], up: list[int], y: Sequence[int], scale: int,
                          need: int) -> tuple[list[int], int]:
    """:func:`_vertex_between` in integers, on y = L * delta; `need` and the
    gains are y-sums times `scale`. Returns (a * m, m): only the two nodes
    of the partial swap can end off a multiple of m."""
    done = 0
    for i in range(len(up) // 2):
        lo, hi = up[i], up[-1 - i]
        gain = scale * (a[lo] - a[hi]) * (y[hi] - y[lo])
        if done + gain >= need:
            if need > done:
                shift = (need - done) * (a[hi] - a[lo])
                g = math.gcd(shift, gain)
                m = gain // g
                a = [v * m for v in a]
                a[lo] += shift // g
                a[hi] -= shift // g
                return a, m
            break
        a[lo], a[hi] = a[hi], a[lo]
        done += gain
    return a, 1


def _solve_exact(deg: Sequence[int], y: Sequence[int], big_l: int,
                 epsilon: float) -> Optional[tuple[list[int], int]]:
    """:func:`_solve_two_row` in exact arithmetic, on the kernel's integers.

    With y = L * delta the LP's row is y . a <= -epsilon * L, and
    epsilon * L = e / s exactly (s > 0). The descent runs in
    kappa = lambda / L = p / q, so c = q * d - p * y is an integer vector
    whose median and tie set are exact, and the one-sided slopes of g are
    decided by the sign of the integer s * (y . a) + e. Returns an optimal
    a as (a * m, m), with every entry in {-1, 0, 1} but at most two, or
    None when the LP is infeasible.
    """
    _check_epsilon(epsilon)
    e, s = epsilon.as_integer_ratio()
    e *= big_l
    n = len(deg)
    by_y = sorted(range(n), key=y.__getitem__)
    if s * sum(y[i] * v for i, v in zip(by_y, _int_fill(n, 0))) + e > 0:
        return None
    lo, hi = Fraction(0), math.inf
    p, q = 0, 1
    for _ in range(1000):
        c = [q * di - p * yi for di, yi in zip(deg, y)]
        mu = sorted(c)[(n - 1) // 2]
        a = [(v > mu) - (v < mu) for v in c]
        tie = [i for i, v in enumerate(c) if v == mu]
        total = -sum(a)
        up = sorted(tie, key=y.__getitem__)
        down = sorted(tie, key=lambda i: -y[i])
        fill = _int_fill(len(tie), total)
        ya = sum(map(mul, y, a))
        h_up = s * (ya + sum(y[i] * v for i, v in zip(up, fill))) + e
        h_down = s * (ya + sum(y[i] * v for i, v in zip(down, fill))) + e
        if h_up <= 0 and (p == 0 or h_down >= 0):
            for i, v in zip(up, fill):
                a[i] = v
            return _vertex_between_exact(a, up, y, s, -h_up)
        j = min((total + len(tie)) // 2, len(tie) - 1)
        if h_up > 0:
            lo, piv = Fraction(p, q), up[j]
        else:
            hi, piv = Fraction(p, q), down[j]
        # Slopes (d_k - d_p) / (y_k - y_p) as integers over their lcm D.
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
        step = Fraction(slope, big_d)
        if not lo < step < hi:
            break
        p, q = step.numerator, step.denominator
    raise InvariantBrokenError(f"exact two-row LP descent stalled at kappa={p}/{q}")


@dataclass
class HighCorrelationResult:
    """Best failing-correlation witness found by the LP at a given slack."""

    r_high: float
    witness: list[float]
    gap: float
    epsilon: float
    objective: float = 0.0

    def to_json(self, include_witness: bool = False) -> str:
        payload = {"r_high": self.r_high, "gap": self.gap, "epsilon": self.epsilon}
        if include_witness:
            payload["witness"] = list(self.witness)
        return _json(payload)


# Up to this many nodes the LP runs in exact integers. There the exact path
# is at least a fifth faster than the float one; they break even near
# n = 28 (G(n, p) graphs, measured in CHANGES.md).
_EXACT_MAX_N = 20


def _failing_witness(k: Kernel, epsilon: float) -> Optional[HighCorrelationResult]:
    """The failing-correlation LP for a kernel with no isolates and at least
    two distinct degrees, or None when it is infeasible at `epsilon`."""
    n = len(k.deg)
    if n <= _EXACT_MAX_N:
        found = _solve_exact(k.deg, k.y, k.lcm, epsilon)
        if found is None:
            return None
        a, m = found  # int / int division is correctly rounded
        ya = sum(map(mul, k.y, a))
        # ya < 0: a gap that rounds to -0.0 is reported as -5e-324 instead.
        gap = ya / (k.lcm * m * n) or math.nextafter(0.0, -math.inf)
        return HighCorrelationResult(
            r_high=exact_correlation(k.deg, a, 1, m), witness=[v / m for v in a],
            gap=gap,
            epsilon=epsilon, objective=sum(map(mul, k.deg, a)) / m)
    d = np.array(k.deg, dtype=float)
    dl = np.array(k.delta)
    a = _solve_two_row(d, dl, epsilon)
    if a is None:
        return None
    witness = a.tolist()
    return HighCorrelationResult(
        r_high=float(correlation(k.deg, witness)), witness=witness,
        gap=float(dl @ a) / n, epsilon=epsilon, objective=float(d @ a))


def max_failing_correlation(g: Graph, epsilon: float = 0.001) -> HighCorrelationResult:
    """LP search for a mean-zero attribute sample with a negative gap.

    Maximizes the degree-weighted sum of attributes subject to zero mean,
    gap at most -epsilon/n, and box bounds [-1, 1]; reports the Pearson
    correlation of the witness with the degree sequence (scale-invariant,
    so the box normalization does not bias the reported value).
    """
    if not is_connected(g) or len(set(kernel(g).deg)) <= 1:
        raise DegenerateGraphError("graph must be connected and non-regular")
    result = _failing_witness(kernel(g), epsilon)
    if result is None:
        raise InfeasibleAtEpsilonError(epsilon)
    return result

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

The descent runs in exact integers from the graph's kernel at every size
(:func:`_solve_exact`), lambda / L and its bracket as integer pairs, so the
witness, and r_high (:func:`_r_high`, with no float witness), depend only
on the multiset of (d_i, L delta_i) pairs, not on the node labels. Floats
only save exact work: on larger graphs they choose where it starts
(:func:`_float_pair`), in the float-solve, exact-certify pattern of
QSopt_ex (Applegate, Cook, Dash and Espinoza, 2007), and place the nodes
far from the median (:func:`_filtered_pass`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
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
from .graph import Graph, Kernel, _pearson, is_connected, kernel
from .metrics import _json


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise PreconditionViolatedError("epsilon must be positive and finite")


def _int_fill(k: int, total: int) -> list[int]:
    """k values in {-1, 0, 1} summing to `total`, |total| <= k: +1 first."""
    ones, zero = divmod(total + k, 2)
    return [1] * ones + [0] * zero + [-1] * (k - ones - zero)


def _float_pair(d: np.ndarray, dl: np.ndarray, epsilon: float) -> Optional[tuple[int, int]]:
    """Where the exact descent may start on a feasible LP: the pivot pair
    (p, j) whose slope (d_j - d_p) / (delta_j - delta_p) is the last lambda
    of the same descent in floats, or None when that stays at lambda = 0.
    Its ties and slope signs are decided within float tolerances."""
    n = len(d)
    slack_tol = 1e-13 * dl.sum()  # d and delta are positive
    lo, hi, lam, pair = 0.0, np.inf, 0.0, None
    for _ in range(1000):
        c = d - lam * dl
        mu = np.partition(c, (n - 1) // 2)[(n - 1) // 2]
        r = c - mu
        tied = np.abs(r) <= 1e-11 * (d.max() + lam * dl.max())
        a = np.sign(r)
        a[tied] = 0.0
        tie = np.flatnonzero(tied)
        total = -int(a.sum())
        up = tie[np.argsort(dl[tie], kind="stable")]  # maximizer at lambda+
        fill = _int_fill(len(tie), total)
        h = dl @ a + epsilon
        h_up = h + dl[up] @ fill          # -(right slope of g)
        h_down = h + dl[up[::-1]] @ fill  # -(left slope of g)
        if h_up <= slack_tol and (lam == 0.0 or h_down >= -slack_tol):
            break
        j = min((total + len(tie)) // 2, len(tie) - 1)
        if h_up > slack_tol:
            lo, p = lam, up[j]
        else:
            hi, p = lam, up[::-1][j]
        w = dl - dl[p]
        off = np.flatnonzero(w)
        slopes = (d[off] - d[p]) / w[off]
        order = np.argsort(slopes)
        cum = np.cumsum(np.abs(w[off])[order])
        i = order[min(int(np.searchsorted(2 * cum, cum[-1] + epsilon)), len(cum) - 1)]
        if not lo < slopes[i] < hi:
            break
        lam, pair = float(slopes[i]), (int(p), int(off[i]))
    return pair


def _filtered_pass(deg: Sequence[int], y: Sequence[int], big_l: int, d: np.ndarray,
                   dl: np.ndarray, p: int, q: int):
    """The exact pass of :func:`_solve_exact` at kappa = p / q with the signs
    as an int8 array, or None when floats cannot place the median. Each
    float c / q = d - kappa L delta, and so their median, is within
    4.01 u (d_max + kappa L delta_max) = err / 2 of the exact one, u = 2**-53
    (a static filter as in Shewchuk 1997): nodes beyond 2 err from the float
    median are decided in floats, the rest in integers."""
    if (p * big_l).bit_length() > q.bit_length() + 960:  # lambda delta may overflow
        return None
    lam = p * big_l / q
    cf = d - lam * dl
    r = (len(cf) - 1) // 2
    mf = np.partition(cf, r)[r]
    err = 2.0 ** -50 * (d.max() + lam * dl.max())
    above, below = cf > mf + 2 * err, cf < mf - 2 * err
    band = np.flatnonzero(~(above | below)).tolist()
    rank = r - int(below.sum())
    if not 0 <= rank < len(band):
        return None
    c = [q * deg[i] - p * y[i] for i in band]
    mu = sorted(c)[rank]
    a = above.astype(np.int8) - below
    a[band] = [(v > mu) - (v < mu) for v in c]
    ya = sum(compress(y, (a > 0).tolist())) - sum(compress(y, (a < 0).tolist()))
    return a, [i for i, v in zip(band, c) if v == mu], ya, -int(a.sum())


def _solve_exact(deg: Sequence[int], y: Sequence[int], big_l: int, epsilon: float,
                 arrays: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 ratio: Optional[tuple[int, int]] = None,
                 ) -> Optional[tuple[Sequence[int], int, dict[int, int], int]]:
    """The failing-correlation LP in exact arithmetic, on the kernel's integers.

    With y = L * delta the LP's row is y . a <= -epsilon * L, and
    epsilon * L = e / s exactly (s > 0; `ratio` is (e / L, s) if the caller
    has checked epsilon). The descent runs in kappa = lambda / L = p / q,
    so c = q * d - p * y is an integer vector whose median and tie set are
    exact, and the one-sided slopes of g are decided by the sign of the
    integer s * (y . a) + e.

    With `arrays` = (d, delta) in numpy the descent starts at the slope of
    the pair from :func:`_float_pair`, if any, and floats decide what they
    provably can. Every start gives the same witness. Returns None when the
    LP is infeasible, else an optimal a as (a, m, fill, y . a * m): a_i in
    {-1, 1} off the tied nodes, 0 on them, and fill[i] / m there, in
    {-1, 0, 1} but for the two nodes of at most one partial swap.
    """
    if ratio is None:
        _check_epsilon(epsilon)
        ratio = epsilon.as_integer_ratio()
    e, s = ratio
    e *= big_l
    n = len(deg)
    # Feasible iff the least y . a over {sum(a) = 0, box}, +1 on the n // 2
    # smallest y and -1 on the n // 2 largest, reaches -e / s. In floats,
    # that sum over L plus epsilon is off by less than (n + 3) u sum(delta).
    if arrays:
        dl = np.sort(arrays[1])
        gap = dl[:n // 2].sum() - dl[n - n // 2:].sum() + epsilon
    if not arrays or abs(gap) <= 2.0 ** -50 * n * dl.sum():
        y_sorted = sorted(y)
        gap = s * (sum(y_sorted[:n // 2]) - sum(y_sorted[n - n // 2:])) + e
    if gap > 0:
        return None
    pair = _float_pair(*arrays, epsilon) if arrays else None
    num, w = (deg[pair[1]] - deg[pair[0]], y[pair[1]] - y[pair[0]]) if pair else (0, 1)
    # lo = -1 until a kappa >= 0 is known to lie below the optimum; a step
    # from above that would leave kappa >= 0 stops at 0 instead. Bounds are
    # integer pairs (p, q), q >= 0, and hi = (1, 0) stands for infinity.
    lo, hi = (-1, 1), (1, 0)
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
            found = a, [i for i, v in enumerate(c) if v == mu], sum(map(mul, y, a)), -sum(a)
        a, tie, ya, total = found
        up = sorted(tie, key=y.__getitem__)  # reversed: the maximizer at kappa-
        ys = [y[i] for i in up]
        vals = _int_fill(len(tie), total)
        h_up = s * (ya + sum(map(mul, ys, vals))) + e
        # At kappa > 0 the left slope of g (from the kappa- maximizer) must be <= 0.
        if h_up <= 0 and (p == 0 or s * (ya + sum(map(mul, reversed(ys), vals))) + e >= 0):
            # Any fill between the two is optimal. Swap the values of the
            # i-th lowest- and i-th highest-y tied nodes, outermost pair first,
            # until s * (y . a) + e rises to 0 (or as far as the walk goes);
            # a part-way swap leaves two values off a multiple of m.
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
        j = min((total + len(tie)) // 2, len(tie) - 1)
        if h_up > 0:
            lo, piv = (p, q), up[j]
        else:
            hi, piv = (p, q), up[-1 - j]
        # Pivot on the median node of the side g descends to; the line
        # through it is best at the weighted median of its slopes
        # (d_k - d_p) / (y_k - y_p), shifted by e. They are sorted by their
        # floats, which are monotone; only floats tied with the median's and
        # not all equal are ordered exactly, over the lcm of their denominators.
        dp, yp = deg[piv], y[piv]
        lines = sorted([((dk - dp) / w, dk - dp, w) for dk, yk in zip(deg, y) if (w := yk - yp)])
        cum = list(accumulate(map(abs, map(itemgetter(2), lines))))
        need = -(-(s * cum[-1] + e) // (2 * s))  # the least cum with 2 s cum >= s W + e
        f, num, w = lines[min(bisect_left(cum, need), len(cum) - 1)]
        first, last = bisect_left(lines, (f,)), bisect_left(lines, (f, math.inf))
        if last - first > 1 and any(nk * w != num * wk for _, nk, wk in lines[first:last]):
            big_d = math.lcm(*map(itemgetter(2), lines[first:last]))
            cum_w = cum[first - 1] if first else 0
            for _, num, w in sorted(lines[first:last], key=lambda ln: ln[1] * (big_d // ln[2])):
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
    objective: float = 0.0

    def to_json(self, include_witness: bool = False) -> str:
        payload = {"r_high": self.r_high, "gap": self.gap, "epsilon": self.epsilon}
        if include_witness:
            payload["witness"] = list(self.witness)
        return _json(payload)


# From this many nodes on, the exact descent starts from :func:`_float_pair`
# and filters its passes; below, that costs more than it saves.
_FLOAT_START_MIN_N = 60


def _r_high(deg: Sequence[int], y: Sequence[int], big_l: int, epsilon: float,
            ratio: Optional[tuple[int, int]] = None):
    """(r_high, the result of :func:`_solve_exact`, m * (d . a)) for a kernel
    with no isolates and two distinct degrees, or None when the LP is
    infeasible at `epsilon`. Only large graphs build delta = y / L in floats."""
    n = len(deg)
    arrays = None
    if n >= _FLOAT_START_MIN_N:
        arrays = (np.fromiter(deg, np.int64, n), np.fromiter((v / big_l for v in y), float, n))
    found = _solve_exact(deg, y, big_l, epsilon, arrays, ratio)
    if found is None:
        return None
    a, m, fill, _ = found
    # m * (d . a), and m * m * |a|^2; a sums to 0.
    da = m * (int(arrays[0] @ a) if arrays else sum(map(mul, deg, a)))
    da += sum(deg[i] * v for i, v in fill.items())
    aa = m * m * (n - len(fill)) + sum(v * v for v in fill.values())
    sum_d = sum(deg)
    r_high = _pearson(n, n * da, n * sum(map(mul, deg, deg)) - sum_d * sum_d, n * aa, 1, m)
    return r_high, found, da


def _failing_witness(k: Kernel, epsilon: float) -> Optional[HighCorrelationResult]:
    """The failing-correlation LP for a kernel with no isolates and at least
    two distinct degrees, or None when it is infeasible at `epsilon`."""
    res = _r_high(k.deg, k.y, k.lcm, epsilon)
    if res is None:
        return None
    r_high, (a, m, fill, ya), da = res
    witness = a.astype(float).tolist() if isinstance(a, np.ndarray) else list(map(float, a))
    for i, v in fill.items():
        witness[i] = v / m  # int / int division is correctly rounded
    # ya < 0: a gap that rounds to -0.0 is reported as -5e-324 instead.
    gap = ya / (k.lcm * m * len(k.deg)) or math.nextafter(0.0, -math.inf)
    return HighCorrelationResult(r_high=r_high, witness=witness, gap=gap,
                                 epsilon=epsilon, objective=da / m)


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

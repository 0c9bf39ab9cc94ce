"""Exact pro-/anti-SGFP classification and the failing-correlation threshold.

A connected non-regular graph admits no positively-correlated failing
attribute sample exactly when its reciprocal-degree sums are an affine
function of its degrees with non-negative slope. The fit is checked by
integer cross-multiplication on the graph's kernel (L * delta is an
integer vector), so there is no tolerance anywhere in the decision path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGraphError,
    PreconditionViolatedError,
    UnknownNodeError,
)
from .graph import Graph, build_graph, degrees, delta, is_connected, is_regular, kernel
from .metrics import _json, correlation, singular_gap

PRO = "ProSGFP"
ANTI = "AntiSGFP"
DEGENERATE = "RegularOrDegenerate"


@dataclass
class Classification:
    kind: str
    witness: Optional[tuple[Fraction, Fraction]]  # (x, z) with delta = x*d + z
    reason: str
    r_ddelta: Optional[float] = None

    def to_json(self) -> str:
        x, z = (str(self.witness[0]), str(self.witness[1])) if self.witness else (None, None)
        return _json({
            "kind": self.kind, "x": x, "z": z,
            "r_ddelta": self.r_ddelta, "reason": self.reason,
        })


def classify(g: Graph) -> Classification:
    """Exact classification of a graph's topology.

    Regular or disconnected graphs are degenerate. Otherwise the graph is
    pro-SGFP iff delta_i = x*d_i + z holds exactly for all nodes with some
    x >= 0 (the fitted x is then necessarily positive).
    """
    if g.n == 0:
        return Classification(DEGENERATE, None, "empty graph")
    if not is_connected(g):
        return Classification(DEGENERATE, None, "graph is disconnected")
    if is_regular(g):
        return Classification(DEGENERATE, None, "graph is regular")
    k = kernel(g)
    slope, reason = _affine_fit(k.deg, k.y)
    if slope is None:
        return Classification(ANTI, None, reason, k.r_ddelta)
    dy, dd = slope
    x = Fraction(dy, k.lcm * dd)
    z = Fraction(k.y[0], k.lcm) - x * k.deg[0]
    return Classification(PRO, (x, z), reason, k.r_ddelta)


def _affine_fit(deg: Sequence[int], y: Sequence[int]) -> tuple[Optional[tuple[int, int]], str]:
    """The pro test on integer degrees and y = L * delta (two distinct
    degrees at least): ((dy, dd), reason) when y is exactly an affine
    function of the degrees with slope dy / dd > 0, else (None, reason)."""
    # Line through node 0 and a node j of another degree.
    j = next(i for i, d in enumerate(deg) if d != deg[0])
    dy, dd = y[j] - y[0], deg[j] - deg[0]
    if dy * dd <= 0:
        return None, "affine fit has non-positive slope"
    if any((yi - y[0]) * dd != dy * (di - deg[0]) for di, yi in zip(deg, y)):
        return None, "reciprocal-degree sums are not an affine function of degree"
    return (dy, dd), "delta = x*d + z exactly with x > 0"


def attach_pendant_path(g: Graph, at) -> Graph:
    """Attach a 4-edge pendant path at the given node label.

    The two interior degree-2 nodes of the new path get unequal
    reciprocal-degree sums, which forces the result to be anti-SGFP.
    """
    g.index_of(at)  # raises UnknownNodeError for unknown labels
    existing = set(g.labels)
    fresh = list(islice((c for c in map("_pp{}".format, count()) if c not in existing), 4))
    q, r, s, t = fresh
    edges = [(g.labels[i], g.labels[j]) for i, j in g.edges()]
    edges += [(at, q), (q, r), (r, s), (s, t)]
    return build_graph(edges, nodes=list(g.labels) + fresh)


def perturb_to_positive_correlation(g: Graph, a: Sequence) -> list:
    """Turn a zero-correlation failing sample into a positive-correlation one.

    Raises the attribute of a maximum-degree node and lowers that of a
    minimum-degree node by the same amount, small enough to keep the gap
    negative (half the strict bound, for float robustness).
    """
    if not is_connected(g) or is_regular(g):
        raise PreconditionViolatedError("graph must be connected and non-regular")
    n = g.n
    mean = sum(a) / n
    if abs(mean) > 1e-12:
        raise PreconditionViolatedError("attribute mean must be 0")
    deg = degrees(g)
    r = correlation(list(deg), list(a))
    if r is None or abs(r) > 1e-12:
        raise PreconditionViolatedError("degree-attribute correlation must be 0")
    gap = singular_gap(g, a)
    if gap >= 0:
        raise PreconditionViolatedError("gap must be negative")
    dl = delta(g)
    i = min(range(n), key=lambda k: (-deg[k], k))
    j = min(range(n), key=lambda k: (deg[k], k))
    # Half the strict bound n|gap| / (delta_i - delta_j): keeps the
    # perturbed gap strictly negative even in float mode.
    eps = min(1, (n * abs(gap)) / (2 * (dl[i] - dl[j]))) if dl[i] > dl[j] else 1
    out = list(a)
    out[i] = out[i] + eps
    out[j] = out[j] - eps
    return out


@dataclass
class ThresholdEstimate:
    """Conjectured supremum of failing correlations, with oracle validation.

    ``oracle_max`` is -inf when the walk met no failing point (it has no
    direction to walk when corr(d, delta) is +-1); JSON writes it as null.
    """

    candidate_sup: float
    validated: bool
    oracle_max: float

    def to_json(self) -> str:
        return _json({
            "candidate_sup": self.candidate_sup,
            "validated": self.validated,
            "oracle_max": None if self.oracle_max == -math.inf else self.oracle_max,
        })


def threshold_estimate(g: Graph, grid: int = 256) -> ThresholdEstimate:
    """Estimate the per-graph correlation threshold above which SGFP holds.

    The supremum of corr(d, a) over mean-zero failing samples is the
    closed form sqrt(1 - r_{d,delta}^2): the angle between the centred
    degree direction and the half-space of negative gap. For anti graphs
    it is validated by an independent search: boundary points of the
    projected degree direction, walked inward on a geometric grid of
    `grid` angles (at least 2). Every walk point is a linear combination
    of two fixed vectors, so the walk costs O(n + grid). For pro graphs
    the affine certificate already proves that no positively-correlated
    sample fails, so the supremum is 0.
    """
    if grid < 2:
        raise PreconditionViolatedError("grid must be >= 2")
    cls = classify(g)
    if cls.kind == DEGENERATE:
        raise DegenerateGraphError("graph must be connected and non-regular")
    if cls.kind == PRO:
        return ThresholdEstimate(candidate_sup=0.0, validated=True, oracle_max=0.0)

    candidate = math.sqrt(max(0.0, 1.0 - cls.r_ddelta * cls.r_ddelta))
    k = kernel(g)
    deg = np.array(k.deg, dtype=float)
    dl = np.array(k.delta)
    n = g.n
    oracle_max = -math.inf
    # Project the centred degree direction onto the non-positive-gap
    # half-space and walk the boundary inward.
    tau = deg - deg.mean()
    tau /= np.linalg.norm(tau)
    dc = dl - dl.mean()
    dc_norm = np.linalg.norm(dc)
    proj = tau - (float(dc @ tau) / (dc_norm ** 2)) * dc
    pnorm = np.linalg.norm(proj)
    if pnorm > 1e-14:
        a_star = proj / pnorm
        v = -dc / dc_norm  # orthogonal to a_star, pushes the gap negative
        thetas = np.geomspace(1e-8, math.pi / 2, num=grid)
        c, s = np.cos(thetas), np.sin(thetas)
        # Walk point a = c*a_star + s*v: its gap and its Pearson correlation
        # with the degrees follow from a few dot products of the two vectors.
        gap = (c * float(dl @ a_star) + s * float(dl @ v)) / n
        a_c, v_c = a_star - a_star.mean(), v - v.mean()
        sxy = c * float(a_c @ tau) + s * float(v_c @ tau)  # tau is centred, |tau| = 1
        syy = c * c * float(a_c @ a_c) + 2 * c * s * float(a_c @ v_c) + s * s * float(v_c @ v_c)
        keep = (gap <= -1e-9) & (syy > 0)  # skip non-failing and constant samples
        if keep.any():
            oracle_max = float(np.max(sxy[keep] / np.sqrt(syy[keep])))

    validated = (candidate - 1e-3 - 1e-12) <= oracle_max <= (candidate + 1e-12)
    return ThresholdEstimate(candidate_sup=candidate, validated=validated,
                             oracle_max=oracle_max)

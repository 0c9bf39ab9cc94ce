"""Gap and correlation statistics for node attributes.

All functions use population moments (divide by n). Arithmetic is
polymorphic: integer or Fraction attributes propagate exactly, floats fall
back to 64-bit arithmetic. Isolated nodes are excluded from both means and
counted in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    AllIsolatesError,
    EmptyGraphError,
    InvariantBrokenError,
    LengthMismatchError,
)
from .graph import Graph, degrees, delta

# Attribute entries may be None only at isolated nodes (undefined marker).
AttributeSample = Sequence


def _check_length(g: Graph, a: AttributeSample) -> None:
    if len(a) != g.n:
        raise LengthMismatchError(g.n, len(a))


def _active_nodes(g: Graph) -> list[int]:
    return [i for i in range(g.n) if len(g.adj[i]) > 0]


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def second_order(g: Graph, a: AttributeSample) -> list:
    """Per-node mean of friends' attributes; None at isolated nodes."""
    _check_length(g, a)
    out = []
    for i in range(g.n):
        d = len(g.adj[i])
        if d == 0:
            out.append(None)
        else:
            total = sum(a[j] for j in g.adj[i])
            out.append(Fraction(total, d) if isinstance(total, int) else total / d)
    return out


def singular_gap(g: Graph, a: AttributeSample):
    """Mean second-order attribute minus mean attribute, isolates excluded.

    Computed from the per-node friend means and cross-checked against the
    reciprocal-degree-weighted form; exact when attributes are exact.
    """
    _check_length(g, a)
    active = _active_nodes(g)
    if not active:
        raise AllIsolatesError("every node is isolated")
    s = second_order(g, a)
    np = len(active)
    gap1 = sum(s[i] - a[i] for i in active)
    gap1 = Fraction(gap1, np) if isinstance(gap1, int) else gap1 / np
    gap2 = singular_gap_delta_form(g, a)
    values = [a[i] for i in active]
    if _is_exact(values):
        tol = 0
    else:
        # Rounding error scales with the summed terms, whose size is bounded
        # by sum|a| * (1 + max delta) / n and max delta <= max degree.
        max_deg = max(len(g.adj[i]) for i in active)
        tol = 1e-9 * sum(abs(v) for v in values) * (1 + max_deg) / np
    if abs(gap1 - gap2) > tol:
        raise InvariantBrokenError(f"gap forms disagree: {gap1} != {gap2}")
    return gap1


def singular_gap_delta_form(g: Graph, a: AttributeSample):
    """The gap written as a reciprocal-degree-weighted sum over contributors."""
    _check_length(g, a)
    active = _active_nodes(g)
    if not active:
        raise AllIsolatesError("every node is isolated")
    dl = _delta_ignoring_isolates(g)
    np = len(active)
    total = sum((dl[j] - 1) * a[j] for j in active)
    return Fraction(total, np) if isinstance(total, int) else total / np


def _delta_ignoring_isolates(g: Graph) -> list[Fraction]:
    deg = degrees(g)
    return [sum(Fraction(1, deg[k]) for k in g.adj[j]) for j in range(g.n)]


def list_gap(g: Graph, a: AttributeSample):
    """Edge-aggregated gap: degree-weighted attribute mean minus plain mean.

    Equals r_{d,a} * sigma_d * sigma_a / mean(d) with population moments.
    Isolated nodes carry zero edge weight and are excluded from the mean.
    """
    _check_length(g, a)
    active = _active_nodes(g)
    if not active:
        raise EmptyGraphError("graph has no edges")
    deg = degrees(g)
    dsum = sum(deg[i] for i in active)
    wsum = sum(deg[i] * a[i] for i in active)
    asum = sum(a[i] for i in active)
    np = len(active)
    first = Fraction(wsum, dsum) if isinstance(wsum, int) else wsum / dsum
    second = Fraction(asum, np) if isinstance(asum, int) else asum / np
    return first - second


def correlation(x: Sequence, y: Sequence) -> Optional[float]:
    """Pearson correlation; None when either input has zero variance.

    Exact zero-covariance and perfect-fit cases return exactly 0.0 / +-1.0
    when both inputs are integers or Fractions.
    """
    if len(x) != len(y):
        raise LengthMismatchError(len(x), len(y))
    n = len(x)
    if n < 2:
        return None
    if _is_exact(x) and _is_exact(y):
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
    xm = sum(float(v) for v in x) / n
    ym = sum(float(v) for v in y) / n
    sxy = sum((float(a) - xm) * (float(b) - ym) for a, b in zip(x, y))
    sxx = sum((float(a) - xm) ** 2 for a in x)
    syy = sum((float(b) - ym) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def r_d_delta(g: Graph) -> Optional[float]:
    """Correlation between degrees and reciprocal-degree sums.

    None for regular graphs (zero degree variance).
    """
    return correlation(degrees(g), delta(g))


@dataclass
class GapReport:
    """Summary statistics for one (graph, attribute sample) pair."""

    n: int
    m: int
    singular_gap: float
    list_gap: float
    r_da: Optional[float]
    r_ddelta: Optional[float]
    excluded_isolates: int
    s: list = field(default_factory=list)
    delta: list = field(default_factory=list)

    def to_json(self, include_per_node: bool = False) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "singular_gap": self.singular_gap,
            "list_gap": self.list_gap,
            "r_da": self.r_da,
            "r_ddelta": self.r_ddelta,
            "excluded_isolates": self.excluded_isolates,
        }
        if include_per_node:
            payload["s"] = [None if v is None else float(v) for v in self.s]
            payload["delta"] = [float(v) for v in self.delta]
        return json.dumps(payload)


def gap_report(g: Graph, a: AttributeSample) -> GapReport:
    """Compute the full first/second-order report for a graph and sample."""
    _check_length(g, a)
    active = _active_nodes(g)
    deg = degrees(g)
    dl = _delta_ignoring_isolates(g)
    da = [deg[i] for i in active]
    aa = [a[i] for i in active]
    dd = [dl[i] for i in active]
    r_da = correlation(da, aa) if len(active) >= 2 else None
    r_dd = correlation(da, dd) if len(active) >= 2 else None
    return GapReport(
        n=g.n,
        m=g.m,
        singular_gap=float(singular_gap(g, a)),
        list_gap=float(list_gap(g, a)),
        r_da=r_da,
        r_ddelta=r_dd,
        excluded_isolates=g.n - len(active),
        s=second_order(g, a),
        delta=dl,
    )

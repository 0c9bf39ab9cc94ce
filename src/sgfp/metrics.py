"""Gap and correlation statistics for node attributes.

All functions use population moments (divide by n). Arithmetic is
polymorphic: integer or Fraction attributes are scaled to integers over a
common denominator and stay exact, floats fall back to 64-bit arithmetic.
Isolated nodes are excluded from both means and counted in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    AllIsolatesError,
    EmptyGraphError,
    InvariantBrokenError,
    IsolatedNodeError,
    LengthMismatchError,
)
from .graph import Graph, exact_correlation, kernel

# Attribute entries may be None only at isolated nodes (undefined marker).
AttributeSample = Sequence


def _check_length(g: Graph, a: AttributeSample) -> None:
    if len(a) != g.n:
        raise LengthMismatchError(g.n, len(a))


def _active_nodes(g: Graph) -> list[int]:
    return [i for i in range(g.n) if len(g.adj[i]) > 0]


_INT = {int}
_EXACT = {int, Fraction}


def _exact_ints(values) -> Optional[tuple[Sequence[int], int]]:
    """Exact values as integers over their common denominator s: (v * s, s).

    None when some value is neither an int nor a Fraction (subclasses such
    as bool count as exact). Int-only input is returned as it is, with s = 1.
    """
    types = set(map(type, values))
    if types <= _INT:
        return values, 1
    if not types <= _EXACT and not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    s = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (s // v.denominator) for v in values], s


def _exact_sample(g: Graph, a: AttributeSample) -> Optional[tuple[Sequence[int], int]]:
    """:func:`_exact_ints` of the sample with 0 at isolated nodes, whose
    entries are ignored (None marks them undefined)."""
    return _exact_ints(a if all(g.adj) else [v if nb else 0 for v, nb in zip(a, g.adj)])


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
    reciprocal-degree-weighted form; exact (in integers) when attributes are.
    """
    _check_length(g, a)
    k = kernel(g)
    np = g.n - k.deg.count(0)
    if not np:
        raise AllIsolatesError("every node is isolated")
    exact = _exact_sample(g, a)
    if exact is None:
        active = _active_nodes(g)
        second = second_order(g, a)
        gap1 = sum(second[i] - a[i] for i in active) / np
        gap2 = singular_gap_delta_form(g, a)
        # Rounding error scales with the summed terms, whose size is bounded
        # by sum|a| * (1 + max delta) / n and max delta <= max degree.
        tol = 1e-9 * sum(abs(a[i]) for i in active) * (1 + max(k.deg)) / np
        if abs(gap1 - gap2) > tol:
            raise InvariantBrokenError(f"gap forms disagree: {gap1} != {gap2}")
        return gap1
    # Both forms share the denominator L * np * s: compare their numerators.
    ints, s = exact
    friend = ints.__getitem__  # every friend is active
    friends = sum(k.lcm // d * sum(map(friend, nb)) for d, nb in zip(k.deg, g.adj) if d)
    weighted = sum(map(mul, k.y, ints))
    base, den = k.lcm * sum(ints), k.lcm * np * s
    if friends != weighted:
        raise InvariantBrokenError(f"gap forms disagree: {Fraction(friends - base, den)} "
                                   f"!= {Fraction(weighted - base, den)}")
    return Fraction(weighted - base, den)


def singular_gap_delta_form(g: Graph, a: AttributeSample):
    """The gap written as a reciprocal-degree-weighted sum over contributors."""
    _check_length(g, a)
    k = kernel(g)
    np = g.n - k.deg.count(0)
    if not np:
        raise AllIsolatesError("every node is isolated")
    exact = _exact_sample(g, a)
    if exact is None:
        return sum((k.y[j] - k.lcm) / k.lcm * a[j] for j in _active_nodes(g)) / np
    ints, s = exact
    return Fraction(sum(map(mul, k.y, ints)) - k.lcm * sum(ints), k.lcm * np * s)


def list_gap(g: Graph, a: AttributeSample):
    """Edge-aggregated gap: degree-weighted attribute mean minus plain mean.

    Equals r_{d,a} * sigma_d * sigma_a / mean(d) with population moments.
    Isolated nodes carry zero edge weight and are excluded from the mean.
    """
    _check_length(g, a)
    deg = kernel(g).deg
    np = g.n - deg.count(0)
    if not np:
        raise EmptyGraphError("graph has no edges")
    dsum = sum(deg)
    exact = _exact_sample(g, a)
    if exact is None:
        active = _active_nodes(g)
        return sum(deg[i] * a[i] for i in active) / dsum - sum(a[i] for i in active) / np
    ints, s = exact
    return Fraction(sum(map(mul, deg, ints)) * np - sum(ints) * dsum, dsum * np * s)


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
    exact_x = _exact_ints(x)
    exact_y = None if exact_x is None else _exact_ints(y)
    if exact_y is not None:
        return exact_correlation(exact_x[0], exact_y[0], exact_x[1], exact_y[1])
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

    None for regular graphs (zero degree variance). Raises
    :class:`IsolatedNodeError` if any node has degree 0.
    """
    k = kernel(g)
    if 0 in k.deg:
        raise IsolatedNodeError(g.labels[k.deg.index(0)])
    return k.r_ddelta


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


def gap_report(g: Graph, a: AttributeSample, per_node: bool = True) -> GapReport:
    """Compute the first/second-order report for a graph and sample.

    ``per_node=False`` leaves the per-node lists ``s`` and ``delta`` empty.
    """
    _check_length(g, a)
    active = _active_nodes(g)
    k = kernel(g)
    r_da = correlation([k.deg[i] for i in active], [a[i] for i in active])
    return GapReport(
        n=g.n,
        m=g.m,
        singular_gap=float(singular_gap(g, a)),
        list_gap=float(list_gap(g, a)),
        r_da=r_da,
        r_ddelta=k.r_ddelta,
        excluded_isolates=g.n - len(active),
        s=second_order(g, a) if per_node else [],
        delta=list(k.delta) if per_node else [],
    )

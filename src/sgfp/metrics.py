"""Gap and correlation statistics for node attributes.

All functions use population moments (divide by n). Each sample is
converted once to integers over a common denominator s: ints and
Fractions by value, a finite float as the binary fraction it stores.
Every metric is computed exactly from those integers. Gaps and friend
means are returned as Fractions when every value is an int or Fraction,
otherwise rounded once to the nearest float; correlations are floats.
Isolated nodes are excluded from both means and counted in the report.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    AllIsolatesError,
    InvariantBrokenError,
    IsolatedNodeError,
    LengthMismatchError,
    NonFiniteOutputError,
    PreconditionViolatedError,
)
from .graph import Graph, Kernel, _neighbour_sums, exact_correlation, kernel

# Attribute entries may be None only at isolated nodes (undefined marker).
AttributeSample = Sequence

_INT = {int}
_EXACT = {int, Fraction}


def _json(payload: dict) -> str:
    """`payload` as strict JSON; raises :class:`NonFiniteOutputError`
    naming the first field that holds an infinity or a NaN."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        for key, value in payload.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise NonFiniteOutputError(key) from None
        raise


def _ratio(v) -> tuple[int, int]:
    try:
        return v.as_integer_ratio()
    except AttributeError:  # numpy integers have no as_integer_ratio
        return operator.index(v), 1


def _as_ints(values) -> tuple[Sequence[int], int, bool]:
    """Values as integers over their common denominator s, and whether
    every value is exact: (v * s, s, exact).

    Exact means an int or a Fraction (subclasses such as bool count).
    Int-only input is returned as it is, with s = 1. Each distinct value
    is converted once (an LP witness holds a handful).
    Raises :class:`PreconditionViolatedError` on a NaN or an infinity.
    """
    types = set(map(type, values))
    if types <= _INT:
        return values, 1, True
    exact = types <= _EXACT or all(isinstance(v, (int, Fraction)) for v in values)
    table = dict.fromkeys(values)
    try:
        pairs = list(map(_ratio, table))
    except (OverflowError, ValueError):
        raise PreconditionViolatedError("attribute values must be finite") from None
    s = math.lcm(*{d for _, d in pairs})
    ints = [p * (s // d) for p, d in pairs]
    if len(table) < len(values):
        ints = list(map(dict(zip(table, ints)).__getitem__, values))
    return ints, s, exact


def _quotient(num: int, den: int, exact: bool):
    """num / den for den > 0: a Fraction when exact, else the nearest float."""
    if exact:
        return Fraction(num, den)
    try:
        return num / den  # int / int division is correctly rounded
    except OverflowError:  # beyond the largest float, which rounds to infinity
        return math.inf if num > 0 else -math.inf


def _prepare(g: Graph, a: AttributeSample) -> tuple[Kernel, int, Sequence[int], int, bool]:
    """(kernel, np, ints, s, exact): g's kernel, its count np of
    non-isolated nodes, and :func:`_as_ints` of the sample with 0 at
    isolated nodes, whose entries are ignored (None marks them undefined)."""
    if len(a) != g.n:
        raise LengthMismatchError(g.n, len(a))
    k = kernel(g)
    np = g.n - k.deg.count(0)
    if not np:
        raise AllIsolatesError("no node has an edge")
    return (k, np, *_as_ints(a if np == g.n else [v if d else 0 for v, d in zip(a, k.deg)]))


def _gap(k: Kernel, np: int, ints: Sequence[int], s: int, sums: Sequence[int]) -> tuple[int, int]:
    """The gap as (numerator, denominator L * np * s), in the delta form;
    raises :class:`InvariantBrokenError` when the friend form (the friend
    sums weighted by L / d, over the same denominator) has another numerator."""
    friends = sum(k.lcm // d * t for d, t in zip(k.deg, sums) if d)
    weighted = sum(map(mul, k.y, ints))
    base, den = k.lcm * sum(ints), k.lcm * np * s
    if friends != weighted:
        raise InvariantBrokenError(f"gap forms disagree: {Fraction(friends - base, den)} "
                                   f"!= {Fraction(weighted - base, den)}")
    return weighted - base, den


def _list_gap(k: Kernel, np: int, ints: Sequence[int], s: int) -> tuple[int, int]:
    dsum = sum(k.deg)
    return sum(map(mul, k.deg, ints)) * np - sum(ints) * dsum, dsum * np * s


def _second_order(k: Kernel, sums: Sequence[int], s: int, exact: bool) -> list:
    return [_quotient(t, d * s, exact) if d else None for d, t in zip(k.deg, sums)]


def singular_gap(g: Graph, a: AttributeSample):
    """Mean second-order attribute minus mean attribute, isolates excluded.

    Computed in the reciprocal-degree-weighted form and cross-checked, in
    integers, against the per-node friend means.
    """
    k, np, ints, s, exact = _prepare(g, a)
    return _quotient(*_gap(k, np, ints, s, _neighbour_sums(g, ints)), exact)


def singular_gap_delta_form(g: Graph, a: AttributeSample):
    """The gap written as a reciprocal-degree-weighted sum over contributors."""
    k, np, ints, s, exact = _prepare(g, a)
    return _quotient(sum(map(mul, k.y, ints)) - k.lcm * sum(ints), k.lcm * np * s, exact)


def list_gap(g: Graph, a: AttributeSample):
    """Edge-aggregated gap: degree-weighted attribute mean minus plain mean.

    Equals r_{d,a} * sigma_d * sigma_a / mean(d) with population moments.
    Isolated nodes carry zero edge weight and are excluded from the mean.
    """
    k, np, ints, s, exact = _prepare(g, a)
    return _quotient(*_list_gap(k, np, ints, s), exact)


def correlation(x: Sequence, y: Sequence) -> Optional[float]:
    """Pearson correlation; None when either input has zero variance.

    Computed from the inputs' exact values by :func:`exact_correlation`:
    zero covariance and perfect fits give exactly 0.0 and +-1.0.
    """
    if len(x) != len(y):
        raise LengthMismatchError(len(x), len(y))
    x_ints, sx, _ = _as_ints(x)
    y_ints, sy, _ = _as_ints(y)
    return exact_correlation(x_ints, y_ints, sx, sy)


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

    def to_json(self) -> str:
        """The scalars, then ``s`` and ``delta`` when the report holds them."""
        payload = {key: value for key, value in vars(self).items() if not isinstance(value, list)}
        payload.update((key, [None if v is None else float(v) for v in value])
                       for key, value in vars(self).items() if isinstance(value, list) and value)
        return _json(payload)


def gap_report(g: Graph, a: AttributeSample, per_node: bool = True) -> GapReport:
    """Compute the first/second-order report for a graph and sample.

    ``per_node=False`` leaves the per-node lists ``s`` and ``delta`` empty.
    """
    k, np, ints, s, exact = _prepare(g, a)
    active = ints if np == g.n else [v for v, d in zip(ints, k.deg) if d]
    sums = _neighbour_sums(g, ints)
    return GapReport(
        n=g.n,
        m=g.m,
        singular_gap=_quotient(*_gap(k, np, ints, s, sums), False),
        list_gap=_quotient(*_list_gap(k, np, ints, s), False),
        r_da=exact_correlation([d for d in k.deg if d], active, 1, s),
        r_ddelta=k.r_ddelta,
        excluded_isolates=g.n - np,
        s=_second_order(k, sums, s, exact) if per_node else [],
        delta=list(k.delta) if per_node else [],
    )

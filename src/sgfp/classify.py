"""Exact pro-/anti-SGFP classification and the failing-correlation threshold.

A connected non-regular graph admits no positively-correlated failing
attribute sample exactly when its reciprocal-degree sums are an affine
function of its degrees with non-negative slope. The fit is checked on
the integer moments of the graph's kernel (L * delta is an integer
vector), so there is no tolerance anywhere in the decision path.
The threshold of an anti graph is certified the same way: an integer
witness, known only through three integer moments, fails and reaches the
closed-form supremum to a relative 2**-60, checked in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional

from .errors import DegenerateGraphError, InvariantBrokenError
from .graph import Graph, _pearson, build_graph, is_connected, is_regular, kernel
from .metrics import _json

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
    x > 0: y = L * delta is affine in d iff its moments have a * a = b * c
    (the census's pro test), with slope a / b = x L > 0 (a > 0: see :func:`threshold_estimate`).
    """
    if g.n == 0:
        return Classification(DEGENERATE, None, "empty graph")
    if not is_connected(g):
        return Classification(DEGENERATE, None, "graph is disconnected")
    if is_regular(g):
        return Classification(DEGENERATE, None, "graph is regular")
    k = kernel(g)
    a, b, c = k.moments
    if a * a != b * c:
        return Classification(ANTI, None, "reciprocal-degree sums are not an affine function "
                                          "of degree", k.r_ddelta)
    x = Fraction(a, b * k.lcm)
    z = Fraction(k.y[0], k.lcm) - x * k.deg[0]
    return Classification(PRO, (x, z), "delta = x*d + z exactly with x > 0", k.r_ddelta)


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


@dataclass
class ThresholdEstimate:
    """The failing-correlation supremum, one failing witness's correlation
    and the certificate's verdict; see :func:`threshold_estimate`."""

    candidate_sup: float
    validated: bool
    oracle_max: float

    def to_json(self) -> str:
        return _json(vars(self))


def threshold_estimate(g: Graph) -> ThresholdEstimate:
    """The supremum of corr(d, a) over failing samples a, with a certificate.

    For pro graphs the affine certificate already proves that no
    positively-correlated sample fails, so the supremum is 0. For anti
    graphs it is sqrt(1 - r_{d,delta}^2) = sqrt(m / (b c)), from the moments
    a = n Sdy - Sd Sy, b = n Sdd - Sd^2 and c = n Syy - Sy^2 of the degrees
    d and y = L * delta, and m = b c - a^2 > 0 (a > 0 too: Sdy / L - Sd is
    the sum over edges of (d_i - d_j)^2 / (d_i d_j)). With d_c = n d - Sd
    and y_c = n y - Sy, the witness w = K (c d_c - a y_c) - y_c has
    y_c . w = -n c < 0, so its gap is negative; d_c . w = n (K m - a) and
    |w|^2 = n c (K^2 m + 1) give its correlation without building it.
    ``validated`` checks in integers that K m > a and that corr(d, w)^2
    falls short of m / (b c) by a relative (m + 2 K m a - a^2) / (K^2 m^2 + m)
    of at most 2**-60, which K = (a // m + 1) * 2**64 ensures.
    """
    cls = classify(g)
    if cls.kind == DEGENERATE:
        raise DegenerateGraphError("graph must be connected and non-regular")
    if cls.kind == PRO:
        return ThresholdEstimate(candidate_sup=0.0, validated=True, oracle_max=0.0)
    k = kernel(g)
    a, b, c = k.moments
    m = b * c - a * a
    if m <= 0:
        raise InvariantBrokenError(f"anti graph with corr(d, delta) = {cls.r_ddelta}")
    big_k = (a // m + 1) << 64
    short = m + 2 * big_k * m * a - a * a
    validated = big_k * m > a and 0 <= short <= (big_k * big_k * m * m + m) >> 60
    return ThresholdEstimate(
        candidate_sup=_pearson(1, m, b, c * m, 1, 1), validated=validated,
        oracle_max=_pearson(1, big_k * m - a, b, c * (big_k * big_k * m + 1), 1, 1))

"""Exact inference on two samples of feature values.

Implements the merged-sample discrepancy statistic of two equal-size samples,
in any order, and its exact null distribution by the Gnedenko-Korolyuk
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np

from ._kernels import discrepancies
from .errors import ValidationError


@dataclass(frozen=True)
class DiscrepancyResult:
    """Observed maximum gap between two step functions."""

    d: int
    argmax_location: float
    q: int
    ties_absorbed: bool = False


def _finite_values(values) -> np.ndarray:
    """values as a float array, checked to be nonempty, finite and 1-D; ties
    are admitted."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValidationError("values must be nonempty")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = bad[0]
        raise ValidationError(f"values must be finite: values[{j}]={float(v[j])!r}")
    return v


def discrepancy(a, b) -> DiscrepancyResult:
    """Maximum absolute gap between the step functions of two 1-D arrays of
    equal length, each in any order, over all t.

    The sup over continuous t is attained at merged data values; elements
    equal across the two arrays are absorbed jointly, so identical arrays
    give d = 0. ties_absorbed says whether the arrays share a value: the
    exact null assumes continuous (tie-free) data.
    """
    a, b = _finite_values(a), _finite_values(b)
    if a.size != b.size:
        raise ValidationError(
            f"sequences must have equal length, got {a.size} and {b.size}"
        )
    d, loc, tied = discrepancies(a[None], b[None])
    return DiscrepancyResult(d=int(d[0]), argmax_location=float(loc[0]),
                             q=a.size, ties_absorbed=bool(tied[0]))


def exact_pvalue(q: int, d: int) -> Fraction:
    """P(D_q >= d) = 2 sum_{k>=1} (-1)^(k+1) C(2q, q - kd) / C(2q, q),
    as an exact reduced Fraction (Gnedenko & Korolyuk 1951).

    The walk starts at the smallest term, C(2q, q - Kd) with K = q // d,
    and goes up one term at a time by the exact integer step
    C(2q, j + d) = C(2q, j) perm(2q - j, d) / perm(j + d, d), so the sum
    costs K + 1 big-integer steps, and its last step reaches the
    denominator C(2q, q). d = 0 returns exactly 1; d > q has no terms and
    returns exactly 0 (the discrepancy of two length-q sequences cannot
    exceed q).
    """
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    if d < 0:
        raise ValidationError(f"d must be >= 0, got {d}")
    if d == 0:
        return Fraction(1)
    j = q % d
    c = math.comb(2 * q, j)
    tail = 0
    for k in range(q // d, 0, -1):
        tail += c if k % 2 else -c  # C(2q, j), with j = q - kd
        c = c * math.perm(2 * q - j, d) // math.perm(j + d, d)
        j += d
    return Fraction(2 * tail, c)  # c is now C(2q, q)

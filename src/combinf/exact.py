"""Exact inference on monotone feature sequences.

Implements the merged-sequence discrepancy statistic of two sorted feature
sequences and its exact null distribution by the Gnedenko-Korolyuk closed
form, together with two oracles for validation: the band-restricted
lattice-path count and brute-force enumeration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._kernels import discrepancies
from .errors import EnumerationLimitError, ValidationError

BRUTE_FORCE_MAX_Q = 12


class TieWarning(UserWarning):
    """Values shared across the two compared sequences were absorbed jointly;
    the exact null assumes continuous (tie-free) data."""


@dataclass(frozen=True)
class DiscrepancyResult:
    """Observed maximum gap between two step functions."""

    d: int
    argmax_location: float
    q: int
    ties_absorbed: bool = False


def _sorted_values(values) -> np.ndarray:
    """values as a float array, checked to be a nonempty, finite and
    nondecreasing 1-D sequence; ties are admitted."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValidationError("monotone sequence must be nonempty")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = bad[0]
        raise ValidationError(f"values must be finite: values[{j}]={float(v[j])!r}")
    down = np.flatnonzero(v[1:] < v[:-1])
    if down.size:
        j = down[0]
        raise ValidationError(
            f"values must be nondecreasing: values[{j}]={float(v[j])!r} vs "
            f"values[{j + 1}]={float(v[j + 1])!r}"
        )
    return v


def discrepancy(a, b) -> DiscrepancyResult:
    """Maximum absolute gap between the step functions of two sorted 1-D
    arrays of equal length, over all t.

    The sup over continuous t is attained at merged data values; elements
    equal across the two arrays are absorbed jointly, so identical arrays
    give d = 0 (with a tie warning, since the exact null assumes continuous
    data).
    """
    a, b = _sorted_values(a), _sorted_values(b)
    if a.size != b.size:
        raise ValidationError(
            f"sequences must have equal length, got {a.size} and {b.size}"
        )
    d, loc = discrepancies(a[None], b[None])
    ties = bool(np.isin(a, b).any())
    if ties:
        warnings.warn(
            "values shared across both sequences were absorbed jointly; "
            "the exact null distribution assumes tie-free data",
            TieWarning,
            stacklevel=2,
        )
    return DiscrepancyResult(d=int(d[0]), argmax_location=float(loc[0]),
                             q=a.size, ties_absorbed=ties)


def _validate_qd(q: int, d: int, d_min: int) -> None:
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    if d < d_min:
        raise ValidationError(f"d must be >= {d_min}, got {d}")


def count_band_paths(q: int, d: int) -> int:
    """A_{q,q}, the number of monotone lattice paths from (0,0) to (q,q)
    inside the band |u - v| < d, by the band recurrence over two rolling
    rows: the independent oracle for ``exact_pvalue``'s closed form, since
    P(D_q >= d) = 1 - A_{q,q} / C(2q, q).

    In-band axis cells are 1 and interior in-band cells follow
    A[u][v] = A[u-1][v] + A[u][v-1]. O(q d) big-int adds, memory O(q).
    """
    _validate_qd(q, d, d_min=1)
    prev = [0] * (q + 1)
    for v in range(1, q + 1):
        prev[v] = 1 if v < d else 0
    for u in range(1, q + 1):
        cur = [0] * (q + 1)
        cur[0] = 1 if u < d else 0
        lo = max(1, u - d + 1)
        hi = min(q, u + d - 1)
        for v in range(lo, hi + 1):
            cur[v] = prev[v] + cur[v - 1]
        prev = cur
    return prev[q]


def exact_pvalue(q: int, d: int) -> Fraction:
    """P(D_q >= d) = 2 sum_{k>=1} (-1)^(k+1) C(2q, q - kd) / C(2q, q),
    as an exact reduced Fraction (Gnedenko & Korolyuk 1951).

    C(2q, j) is walked down from j = q by the exact integer step
    C(2q, j - 1) = C(2q, j) j / (2q - j + 1), so the sum costs at most q
    small-integer steps whatever d is. d = 0 returns exactly 1; d > q has
    no terms and returns exactly 0 (the discrepancy of two length-q
    sequences cannot exceed q).
    """
    _validate_qd(q, d, d_min=0)
    if d == 0:
        return Fraction(1)
    central = c = math.comb(2 * q, q)
    tail = 0
    for j in range(q, q % d, -1):
        c = c * j // (2 * q - j + 1)  # C(2q, j - 1), a term when q - j + 1 = kd
        k, r = divmod(q - j + 1, d)
        if r == 0:
            tail += c if k % 2 else -c
    return Fraction(2 * tail, central)


@lru_cache(maxsize=None)
def _brute_force_max_counts(q: int) -> tuple[int, ...]:
    """counts[m] = number of monotone (0,0)->(q,q) paths whose max |u - v|
    equals m, by full enumeration of all C(2q, q) paths: each 2q-bit mask
    with q set bits is one path, bit s set when step s goes right."""
    steps = 2 * q
    shifts = np.arange(steps, dtype=np.uint32)
    counts = np.zeros(q + 1, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << steps, chunk):
        masks = np.arange(start, min(start + chunk, 1 << steps), dtype=np.uint32)
        masks = masks[np.bitwise_count(masks) == q]
        right = ((masks[:, None] >> shifts) & 1).astype(np.int8)
        walk = np.cumsum(2 * right - 1, axis=1, dtype=np.int8)
        counts += np.bincount(np.abs(walk).max(axis=1), minlength=q + 1)
    return tuple(int(c) for c in counts)


def brute_force_pvalue(q: int, d: int) -> float:
    """Enumeration oracle for exact_pvalue: fraction of all interleavings of
    q right-steps and q up-steps whose max prefix gap is >= d."""
    _validate_qd(q, d, d_min=0)
    if q > BRUTE_FORCE_MAX_Q:
        raise EnumerationLimitError(
            f"brute force enumeration supports q <= {BRUTE_FORCE_MAX_Q}, got {q}"
        )
    if d == 0:
        return 1.0
    counts = _brute_force_max_counts(q)
    total = math.comb(2 * q, q)
    atleast = sum(counts[min(d, q + 1):]) if d <= q else 0
    return atleast / total

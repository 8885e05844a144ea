"""Exact inference on monotone feature sequences.

Implements the step-function construction for strictly sorted feature values,
the merged-sequence discrepancy statistic, and its exact null distribution
via band-restricted lattice-path counting, together with a brute-force
enumeration oracle for validation.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._kernels import discrepancy_sorted
from .errors import EnumerationLimitError, ValidationError

BRUTE_FORCE_MAX_Q = 12


class TieWarning(UserWarning):
    """Values shared across the two compared sequences were absorbed jointly;
    the exact null assumes continuous (tie-free) data."""


@dataclass(frozen=True)
class MonotoneSequence:
    """Sorted real feature values.

    Strictly increasing by default; ``strict=False`` admits ties (used for
    sorted MST edge weights, where downstream code absorbs them and warns).
    Values must be finite.
    """

    values: tuple[float, ...]
    strict: bool = True

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValidationError("monotone sequence must be nonempty")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for j, v in enumerate(vals):
            if not math.isfinite(v):
                raise ValidationError(f"values must be finite: values[{j}]={v!r}")
        for j in range(len(vals) - 1):
            if vals[j + 1] < vals[j] or (self.strict and vals[j + 1] == vals[j]):
                kind = "strictly increasing" if self.strict else "nondecreasing"
                raise ValidationError(
                    f"values must be {kind}: values[{j}]={vals[j]!r} vs "
                    f"values[{j + 1}]={vals[j + 1]!r}"
                )

    @property
    def q(self) -> int:
        return len(self.values)

    @property
    def has_ties(self) -> bool:
        return any(a == b for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class StepFunction:
    """Nondecreasing integer step function: phi(t) = #{breakpoints <= t}.

    phi is 0 before the first breakpoint and len(breakpoints) at and after
    the last, so the j-th sorted value maps to j (1-based).
    """

    breakpoints: tuple[float, ...]

    def __call__(self, t: float) -> int:
        return bisect.bisect_right(self.breakpoints, t)

    @property
    def q(self) -> int:
        return len(self.breakpoints)


@dataclass(frozen=True)
class DiscrepancyResult:
    """Observed maximum gap between two step functions."""

    d: int
    argmax_location: float
    q: int
    ties_absorbed: bool = False


@dataclass(frozen=True)
class BandCountTable:
    """Counts of monotone lattice paths staying inside the band |u - v| < d.

    cells[u][v] is the number of admissible paths from (0,0) to (u,v);
    out-of-band cells are 0. Arbitrary-precision integers throughout.
    """

    q: int
    d: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def corner(self) -> int:
        return self.cells[self.q][self.q]


@dataclass(frozen=True)
class ExactPValue:
    """P(D_q >= d) as an exact reduced rational plus its double rounding."""

    numerator: int
    denominator: int
    real_value: float

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "ExactPValue":
        return cls(frac.numerator, frac.denominator, float(frac))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k)."""
    if n < 0 or k < 0:
        raise ValidationError(f"binomial requires n, k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValidationError(f"binomial requires k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def build_step_function(seq: MonotoneSequence) -> StepFunction:
    """Step function mapping the j-th sorted value (and anything up to the
    next one) to j."""
    if not isinstance(seq, MonotoneSequence):
        seq = MonotoneSequence(tuple(seq))
    return StepFunction(seq.values)


def discrepancy(seq_a: MonotoneSequence, seq_b: MonotoneSequence) -> DiscrepancyResult:
    """Maximum absolute gap between the two step functions over all t.

    The sup over continuous t is attained at merged data values; elements
    equal across the two sequences are absorbed jointly, so identical
    sequences give d = 0 (with a tie warning, since the exact null assumes
    continuous data).
    """
    if seq_a.q != seq_b.q:
        raise ValidationError(
            f"sequences must have equal length, got {seq_a.q} and {seq_b.q}"
        )
    a = np.asarray(seq_a.values, dtype=np.float64)
    b = np.asarray(seq_b.values, dtype=np.float64)
    d, loc, ties = discrepancy_sorted(a, b)
    if ties:
        warnings.warn(
            "values shared across both sequences were absorbed jointly; "
            "the exact null distribution assumes tie-free data",
            TieWarning,
            stacklevel=2,
        )
    return DiscrepancyResult(d=int(d), argmax_location=float(loc), q=seq_a.q,
                             ties_absorbed=bool(ties))


def _validate_qd(q: int, d: int, d_min: int) -> None:
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    if d < d_min:
        raise ValidationError(f"d must be >= {d_min}, got {d}")


def count_band_paths(q: int, d: int) -> BandCountTable:
    """Full (q+1) x (q+1) path-count table for the band |u - v| < d.

    cells[0][0] = 0 and in-band axis cells are 1; interior in-band cells
    follow cells[u][v] = cells[u-1][v] + cells[u][v-1]. O(q^2) big-int adds.
    """
    _validate_qd(q, d, d_min=1)
    cells = [[0] * (q + 1) for _ in range(q + 1)]
    for u in range(1, q + 1):
        if u < d:
            cells[u][0] = 1
            cells[0][u] = 1
    for u in range(1, q + 1):
        lo = max(1, u - d + 1)
        hi = min(q, u + d - 1)
        for v in range(lo, hi + 1):
            cells[u][v] = cells[u - 1][v] + cells[u][v - 1]
    return BandCountTable(q=q, d=d, cells=tuple(tuple(row) for row in cells))


def _band_corner_count(q: int, d: int) -> int:
    """A_{q,q} via a two-row rolling DP (memory O(q))."""
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


def exact_pvalue(q: int, d: int) -> ExactPValue:
    """P(D_q >= d) = 1 - A_{q,q} / C(2q, q), exactly.

    d = 0 returns exactly 1; d > q returns exactly 0 (the discrepancy of two
    length-q sequences cannot exceed q).
    """
    _validate_qd(q, d, d_min=0)
    if d == 0:
        return ExactPValue.from_fraction(Fraction(1))
    if d > q:
        return ExactPValue.from_fraction(Fraction(0))
    corner = _band_corner_count(q, d)
    return ExactPValue.from_fraction(1 - Fraction(corner, binomial(2 * q, q)))


@lru_cache(maxsize=None)
def _brute_force_max_counts(q: int) -> tuple[int, ...]:
    """counts[m] = number of monotone (0,0)->(q,q) paths whose max |u - v|
    equals m, by full enumeration of all C(2q, q) paths."""
    counts = [0] * (q + 1)
    steps = 2 * q
    for rights in combinations(range(steps), q):
        right_set = set(rights)
        u = v = 0
        best = 0
        for s in range(steps):
            if s in right_set:
                u += 1
            else:
                v += 1
            gap = abs(u - v)
            if gap > best:
                best = gap
        counts[best] += 1
    return tuple(counts)


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
    total = binomial(2 * q, q)
    atleast = sum(counts[min(d, q + 1):]) if d <= q else 0
    return atleast / total

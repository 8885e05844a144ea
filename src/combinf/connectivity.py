"""Correlation-based connectivity matrices, edge-wise twin correlations, and
the Falconer heritability index."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import ValidationError


class DegenerateEdgeWarning(UserWarning):
    """An edge's values are constant across twin pairs; its correlation is
    undefined and is reported as 0."""


@dataclass(frozen=True)
class DataMatrix:
    """n observations (rows) by p nodes (columns) of finite reals."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"data matrix must be 2-D, got {values.ndim}-D")
        n, p = values.shape
        if n < 2 or p < 2:
            raise ValidationError(f"data matrix needs n >= 2 and p >= 2, got {n}x{p}")
        if not np.isfinite(values).all():
            raise ValidationError("data matrix contains non-finite entries")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            if len(self.labels) != p:
                raise ValidationError(
                    f"{len(self.labels)} labels for {p} columns")
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric p x p edge-weight matrix with node labels."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"connectivity matrix must be square, got {values.shape}")
        if len(self.labels) != values.shape[0]:
            raise ValidationError(
                f"{len(self.labels)} labels for {values.shape[0]} nodes")
        if not np.isfinite(values).all():
            raise ValidationError("connectivity matrix contains non-finite entries")
        if np.abs(values - values.T).max(initial=0.0) > 1e-9:
            raise ValidationError("connectivity matrix is not symmetric")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", values)

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TwinCohort:
    """Paired connectivity matrices (twin A, twin B) with shared labels."""

    pairs: tuple[tuple[ConnectivityMatrix, ConnectivityMatrix], ...]

    def __post_init__(self):
        if len(self.pairs) < 3:
            raise ValidationError(
                f"cohort needs >= 3 pairs for nondegenerate correlation, got {len(self.pairs)}")
        labels = self.pairs[0][0].labels
        for k, (a, b) in enumerate(self.pairs):
            if a.labels != labels or b.labels != labels:
                raise ValidationError(f"pair {k} labels differ from cohort labels")
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.pairs[0][0].labels

    @property
    def p(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class HeritabilityMap:
    """Per-edge Falconer heritability index, 2 * (r_MZ - r_DZ)."""

    labels: tuple[str, ...]
    values: np.ndarray


def _default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"V{k + 1}" for k in range(p))


def pearson_correlation_matrix(data: DataMatrix | np.ndarray,
                               labels=None) -> ConnectivityMatrix:
    """Sample Pearson correlation between columns; exactly symmetric with a
    unit diagonal."""
    if isinstance(data, DataMatrix):
        values = data.values
        labels = labels or data.labels
    else:
        values = np.asarray(data, dtype=np.float64)
    # max == min, not std == 0: a column of 0.1s has std 1.4e-17.
    zero = np.flatnonzero(values.max(axis=0) == values.min(axis=0))
    if zero.size:
        raise ValidationError(f"column {zero[0]} has zero variance")
    corr = np.corrcoef(values, rowvar=False)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    if labels is None:
        labels = _default_labels(values.shape[1])
    return ConnectivityMatrix(labels=tuple(labels), values=corr)


def spearman_correlation(a, b) -> float:
    """Pearson correlation of midranks (average ranks on ties)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"vectors must be 1-D of equal length, got {a.shape} and {b.shape}")
    if a.size < 3:
        raise ValidationError(f"need at least 3 points, got {a.size}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ValidationError("spearman correlation undefined for constant vector")
    ra = rankdata(a)
    rb = rankdata(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def twin_edgewise_correlation(cohort: TwinCohort,
                              symmetrize: bool = False) -> ConnectivityMatrix:
    """Spearman correlation, per edge, between twin-A and twin-B edge values
    across pairs. Diagonal is 1; constant (degenerate) edges are reported as
    0 with a warning. ``symmetrize`` pools both within-pair orderings."""
    p = cohort.p
    m = len(cohort.pairs)
    avals = np.empty((m, p, p))
    bvals = np.empty((m, p, p))
    for k, (ma, mb) in enumerate(cohort.pairs):
        avals[k] = ma.values
        bvals[k] = mb.values
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            a = avals[:, i, j]
            b = bvals[:, i, j]
            if symmetrize:
                a, b = np.concatenate([a, b]), np.concatenate([b, a])
            if np.all(a == a[0]) or np.all(b == b[0]):
                warnings.warn(
                    f"edge ({cohort.labels[i]}, {cohort.labels[j]}) is constant "
                    "across pairs; correlation set to 0",
                    DegenerateEdgeWarning, stacklevel=2)
                r = 0.0
            else:
                r = spearman_correlation(a, b)
            out[i, j] = out[j, i] = r
    np.fill_diagonal(out, 1.0)
    return ConnectivityMatrix(labels=cohort.labels, values=out)


def heritability_index(c_mz: ConnectivityMatrix, c_dz: ConnectivityMatrix,
                       clamp: bool = False) -> HeritabilityMap:
    """Falconer's formula 2 * (C_MZ - C_DZ), entrywise.

    Raw values by default (can be negative); ``clamp`` restricts to [0, 1]
    for display."""
    if c_mz.labels != c_dz.labels:
        raise ValidationError("MZ and DZ matrices have different labels")
    if c_mz.values.shape != c_dz.values.shape:
        raise ValidationError(
            f"shape mismatch: {c_mz.values.shape} vs {c_dz.values.shape}")
    hi = 2.0 * (c_mz.values - c_dz.values)
    if clamp:
        hi = np.clip(hi, 0.0, 1.0)
    return HeritabilityMap(labels=c_mz.labels, values=hi)

"""Correlation-based connectivity matrices, edge-wise twin correlations, and
the Falconer heritability index."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import np

from ._kernels import correlations
from .errors import ValidationError

# Largest |a_ij - a_ji| of a symmetric connectivity matrix or matrix CSV.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class DataMatrix:
    """n observations (rows) by p nodes (columns) of finite reals."""

    values: np.ndarray

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

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric p x p edge-weight matrix with node labels.

    The only validator of connectivity matrices: square, nonempty, one
    distinct label per node, finite, and symmetric within SYMMETRY_TOL.
    Stores a copy of a matrix that equals its transpose bit for bit, else
    the mean of the two.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"connectivity matrix must be square, got {values.shape}")
        if not values.size:
            raise ValidationError("connectivity matrix has no nodes")
        if len(self.labels) != values.shape[0]:
            raise ValidationError(
                f"{len(self.labels)} labels for {values.shape[0]} nodes")
        if len(set(self.labels)) < len(self.labels):
            i = next(i for i, v in enumerate(self.labels) if v in self.labels[:i])
            raise ValidationError(f"node label {self.labels[i]!r} repeated at "
                                  f"positions {self.labels.index(self.labels[i])} and {i}")
        finite = np.isfinite(values)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValidationError(
                f"non-finite value {values[i, j]} at row {i + 1}, column {j + 1}")
        # Bits, not values: the mean turns a mirrored -0.0 and 0.0 into 0.0.
        bits = values.view(np.int64)
        if (bits != bits.T).any():
            bad = np.argwhere(np.abs(values - values.T) > SYMMETRY_TOL)
            if bad.size:
                i, j = bad[0]
                raise ValidationError(
                    f"matrix not symmetric at ({i},{j}) within {SYMMETRY_TOL}: "
                    f"{float(values[i, j])!r} vs {float(values[j, i])!r}")
            # Halved before the sum, so that no finite entry overflows.
            values = values / 2.0 + values.T / 2.0
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


def _default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"V{k + 1}" for k in range(p))


def pearson_correlation_matrix(data: DataMatrix | np.ndarray,
                               labels=None) -> ConnectivityMatrix:
    """Sample Pearson correlation between columns, by the permutation
    null's ``correlations`` kernel, so the same data give the same doubles;
    exactly symmetric with a unit diagonal."""
    values = (data.values if isinstance(data, DataMatrix)
              else np.asarray(data, dtype=np.float64))
    corr = correlations(values[None],
                        lambda k, j: f"column {j} has zero variance")[0]
    np.fill_diagonal(corr, 1.0)
    if labels is None:
        labels = _default_labels(values.shape[1])
    return ConnectivityMatrix(labels=tuple(labels), values=corr)


def _midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks, 1-based, of each column of a 2-D array of finite
    values: a block of tied values shares the mean of its positions. The
    ranks are multiples of 1/2, so exact in float64."""
    order = np.argsort(x, axis=0)
    sorted_x = np.take_along_axis(x, order, axis=0)
    n = len(x)
    pos = np.arange(n)[:, None]
    # starts[i]: row i of the sorted column opens a block of ties
    starts = np.ones(x.shape, dtype=bool)
    starts[1:] = sorted_x[1:] != sorted_x[:-1]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    ends = np.ones(x.shape, dtype=bool)  # row i closes a block
    ends[:-1] = starts[1:]
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[::-1], axis=0)[::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=0)
    return ranks


def _midrank_pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of the midranks of each column of two (n x m)
    arrays; centred midranks are multiples of 1/2, so every sum is exact."""
    ra = _midranks(a)
    rb = _midranks(b)
    ra -= ra.mean(axis=0)
    rb -= rb.mean(axis=0)
    return (ra * rb).sum(axis=0) / np.sqrt((ra * ra).sum(axis=0)
                                           * (rb * rb).sum(axis=0))


class TwinMap(NamedTuple):
    """A cohort's edgewise twin correlations, and its degenerate edges: those
    constant across pairs on either side, whose correlation is undefined and
    reported as 0, as (label, label) pairs in (i, j) order."""

    correlation: ConnectivityMatrix
    degenerate_edges: tuple[tuple[str, str], ...]

    @property
    def p(self) -> int:
        return self.correlation.p


def twin_edgewise_correlation(cohort: TwinCohort,
                              symmetrize: bool = False) -> TwinMap:
    """Spearman correlation, per edge, between twin-A and twin-B edge values
    across pairs, with diagonal 1, and the degenerate (constant) edges,
    whose correlation is 0. ``symmetrize`` pools both within-pair
    orderings."""
    iu = np.triu_indices(cohort.p, k=1)
    a = np.array([ma.values[iu] for ma, _ in cohort.pairs])
    b = np.array([mb.values[iu] for _, mb in cohort.pairs])
    if symmetrize:
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
    constant = ((a.max(axis=0) == a.min(axis=0))
                | (b.max(axis=0) == b.min(axis=0)))
    with np.errstate(invalid="ignore"):  # 0/0 on the constant edges
        r = np.where(constant, 0.0, _midrank_pearson(a, b))
    out = np.eye(cohort.p)
    out[iu] = out.T[iu] = r
    labels = cohort.labels
    return TwinMap(
        ConnectivityMatrix(labels=labels, values=out),
        tuple((labels[iu[0][e]], labels[iu[1][e]])
              for e in np.flatnonzero(constant)))


def heritability_index(c_mz: ConnectivityMatrix,
                       c_dz: ConnectivityMatrix) -> ConnectivityMatrix:
    """Falconer's formula 2 * (C_MZ - C_DZ), entrywise; raw values, which
    can be negative."""
    if c_mz.labels != c_dz.labels:
        raise ValidationError("MZ and DZ matrices have different labels")
    return ConnectivityMatrix(labels=c_mz.labels,
                              values=2.0 * (c_mz.values - c_dz.values))

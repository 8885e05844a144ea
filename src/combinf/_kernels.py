"""Numeric kernels: one spanning-tree routine and the correlation-MST
statistic batched over groups.

``prim_sorted_keys`` (a dense Prim of p - 1 vectorised argmin steps over a
stack of key matrices) is the package's only MST routine. Two kernels are the
one definition of the statistic: ``sorted_mst_weights`` (data -> column
``correlations`` -> sorted MST weights, for a stack of groups) and
``discrepancies`` (two rows of sorted weights -> D_q and the smallest merged
value attaining it, absorbing values equal across the rows).
``permutation_null`` chains them over chunks of relabelings,
``simulation.observed_discrepancy`` over one pair of groups, and
``exact.discrepancy`` calls ``discrepancies`` alone on two sorted weight
arrays;
``mst.mst_from_connectivity`` calls ``prim_sorted_keys`` on edge ranks and
``connectivity.pearson_correlation_matrix`` calls ``correlations``. All
kernels are plain numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Matrix cells per (2 x relabelings, p, p) array in one chunk of the null:
# large enough to amortise numpy's per-call cost, small enough that the
# temporaries stay in cache and peak memory does not grow with the count.
# At n=10, p=40 a chunk of 10 relabelings timed fastest of 2**13..2**17.
_CHUNK_CELLS = 2 ** 15


def prim_sorted_keys(w):
    """Sorted keys of the edges a dense Prim from node 0 takes, for each
    p x p key matrix in an (m, p, p) stack; returns an (m, p - 1) array.

    Only the off-diagonal keys are read, and w is overwritten. A graph whose
    keys are all distinct has exactly one MST, so with edge ranks as keys the
    sorted result lists Kruskal's tree in insertion order; every MST has the
    same multiset of keys, so with tied weights as keys the sorted result
    does not depend on tie order.
    """
    m, p, _ = w.shape
    rows = np.arange(m)
    dist = w[:, 0].copy()
    dist[:, 0] = np.inf
    w[:, :, 0] = np.inf
    out = np.empty((m, p - 1))
    for step in range(p - 1):
        v = dist.argmin(axis=1)
        out[:, step] = dist[rows, v]
        dist[rows, v] = np.inf
        w[rows, :, v] = np.inf
        np.minimum(dist, w[rows, v], out=dist)
    out.sort(axis=1)
    return out


def correlations(x, describe):
    """Column Pearson correlations of each group in an (m, n, p) stack of m
    groups of n observations of p nodes; returns (m, p, p), exactly
    symmetric, with the diagonal as computed. The data are made C-ordered
    and the column means summed row by row, and every Gram matrix is its own
    product, so each correlation is the same double whatever the memory
    layout of x and as for that group alone. Each column is first scaled by
    the power of two that brings its largest magnitude into [0.5, 1): the
    scaling is exact, so the correlations keep their bits short of subnormal
    underflow, and no product overflows whatever the data's scale. A column
    that is constant within a group raises ValidationError with
    ``describe(k, j)`` for the first such column j, in group k.
    """
    x = np.ascontiguousarray(x)
    hi, lo = x.max(axis=1), x.min(axis=1)
    const = hi == lo
    if const.any():
        k, j = np.argwhere(const)[0]
        raise ValidationError(describe(k, j))
    # ldexp, not x * 2.0**-e: 2.0**-e overflows for subnormal columns
    x = np.ldexp(x, -np.frexp(np.maximum(hi, -lo))[1][:, None, :])
    m, n, p = x.shape
    mean = np.zeros((m, p))
    for r in range(n):
        mean += x[:, r]
    mean /= n
    a = x - mean[:, None, :]
    gram = np.matmul(np.ascontiguousarray(a.transpose(0, 2, 1)), a)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    corr = gram / np.sqrt(diag[:, :, None] * diag[:, None, :])
    # Mirror the upper triangle: the product need not be exactly symmetric.
    return np.where(np.triu(np.ones((p, p), dtype=bool), 1), corr,
                    corr.transpose(0, 2, 1))


def sorted_mst_weights(x, one_minus,
                       describe=lambda k, j: f"column {j} is constant in group {k}"):
    """Sorted correlation-MST edge weights of each group in an (m, n, p)
    stack: the ``correlations`` of each group, or 1 - correlation when
    one_minus is set, as edge weights of a tree spanning all p nodes.
    Returns an (m, p - 1) array. A constant column raises ValidationError
    with ``describe(k, j)``.
    """
    corr = correlations(
        x, lambda k, j: f"{describe(k, j)}, so its correlations are undefined")
    return prim_sorted_keys(1.0 - corr if one_minus else corr)


def discrepancies(wa, wb):
    """Max step-function gap for each row pair of two (m, q) arrays of
    sorted weights, and the smallest merged value attaining it.

    Returns (d, at): an int64 array of the m gaps and a float array of the
    values. The gap is evaluated after all values equal to a merged value
    have been counted in both rows, so values shared by the two rows are
    absorbed jointly and identical rows give 0.
    """
    m, q = wa.shape
    merged = np.concatenate([wa, wb], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.take_along_axis(merged, order, axis=1)
    gap = np.abs(np.cumsum(np.where(order < q, 1, -1), axis=1))
    # Only the last element of each run of equal values ends a step.
    run_end = np.ones((m, 2 * q), dtype=bool)
    run_end[:, :-1] = values[:, 1:] != values[:, :-1]
    step_gap = gap * run_end
    first = step_gap.argmax(axis=1)
    rows = np.arange(m)
    return step_gap[rows, first], values[rows, first]


def permutation_null(Z, perms, one_minus):
    """Discrepancy statistics for relabelings of pooled data.

    Z is the pooled (2n x p) data matrix; each row of perms is a permutation
    of 0..2n-1 whose first n entries form group A. Returns an int64 array of
    the max step-function gap for each relabeling. Relabelings are processed
    in chunks of about ``_CHUNK_CELLS`` matrix cells. A column that is
    constant within a group has no correlation: that raises ValidationError
    naming the relabeling, the group and the column.
    """
    count, n2 = perms.shape
    n = n2 // 2
    p = Z.shape[1]
    chunk = max(1, _CHUNK_CELLS // (2 * p * p))
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, chunk):
        # Row 2k holds group A of relabeling start + k, row 2k + 1 group B.
        groups = perms[start:start + chunk].reshape(-1, n)
        w = sorted_mst_weights(
            Z[groups], one_minus,
            lambda k, j: (f"relabeling {start + k // 2}: column {j} is "
                          f"constant in group {'AB'[k % 2]}"))
        out[start:start + chunk] = discrepancies(w[0::2], w[1::2])[0]
    return out


def backend() -> str:
    """Name of the kernel backend; the kernels are plain numpy."""
    return "numpy"

"""Numeric kernels: the correlation-MST statistic batched over groups, and an
edge-list Kruskal.

Two kernels are the one definition of the statistic that every caller uses:
``sorted_mst_weights`` (data -> column correlations -> sorted MST weights, for
a whole stack of groups, with a dense Prim MST of p - 1 vectorised argmin
steps) and ``discrepancies`` (two rows of sorted weights -> D_q and the
smallest merged value attaining it, absorbing values equal across the rows).
``mst_discrepancies`` chains them for a stack of group pairs: the observed
statistic calls it with a stack of one and ``permutation_null`` feeds it
relabelings of pooled data in chunks. The exact combinatorial trial calls the
two kernels directly, and ``exact.discrepancy`` calls ``discrepancies``. All
kernels are plain numpy, so ``backend()`` is "numpy".
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Matrix cells per (2 x relabelings, p, p) array in one chunk of the null:
# large enough to amortise numpy's per-call cost, small enough that the
# temporaries stay in cache and peak memory does not grow with the count.
# At n=10, p=40 a chunk of 10 relabelings timed fastest of 2**13..2**17.
_CHUNK_CELLS = 2 ** 15


def mst_tree_indices(iu, ju, w, p):
    """Kruskal on an edge list; returns the tree's edge-list indices in
    insertion order.

    Edges must be listed with i < j in lexicographic order so that the stable
    sort breaks weight ties by (min endpoint, max endpoint).
    """
    order = np.argsort(w, kind="mergesort")
    parent = np.arange(p)
    out = np.empty(p - 1, dtype=np.int64)
    cnt = 0
    for e in range(order.shape[0]):
        idx = order[e]
        a = iu[idx]
        b = ju[idx]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            out[cnt] = idx
            cnt += 1
            if cnt == p - 1:
                break
    return out[:cnt]


def sorted_mst_weights(x, one_minus,
                       describe=lambda k, j: f"column {j} is constant in group {k}"):
    """Sorted correlation-MST edge weights of each group in a stack.

    x is (m, n, p): m groups of n observations of p nodes. The edge weight is
    the column Pearson correlation, or 1 - correlation when one_minus is set,
    and the tree spans all p nodes. Returns an (m, p - 1) array. The column
    means are summed row by row and every Gram matrix is its own product, so
    each weight is the same double as for that group alone. A column that is
    constant within a group has no correlation: that raises ValidationError
    with ``describe(k, j)`` for the first such column j, in group k.
    """
    const = x.max(axis=1) == x.min(axis=1)
    if const.any():
        k, j = np.argwhere(const)[0]
        raise ValidationError(
            f"{describe(k, j)}, so its correlations are undefined")
    m, n, p = x.shape
    mean = np.zeros((m, p))
    for r in range(n):
        mean += x[:, r]
    mean /= n
    a = x - mean[:, None, :]
    gram = np.matmul(np.ascontiguousarray(a.transpose(0, 2, 1)), a)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    corr = gram / np.sqrt(diag[:, :, None] * diag[:, None, :])
    w = 1.0 - corr if one_minus else corr
    # Mirror the upper triangle: the product need not be exactly symmetric.
    w = np.where(np.triu(np.ones((p, p), dtype=bool), 1), w,
                 w.transpose(0, 2, 1))

    # Dense Prim from node 0. Every MST of a graph has the same multiset of
    # weights, so the sorted tree weights do not depend on tie order.
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


def mst_discrepancies(x, one_minus, first=0):
    """D_q between the correlation MSTs of each group pair in a stack.

    x is (m, 2, n, p): pair k compares group x[k, 0] with group x[k, 1].
    Returns an int64 array of m discrepancies. A column that is constant
    within a group has no correlation: that raises ValidationError naming
    the pair, by its index plus ``first``, the group and the column.
    """
    m, _, n, p = x.shape
    w = sorted_mst_weights(
        x.reshape(2 * m, n, p), one_minus,
        lambda k, j: (f"relabeling {first + k // 2}: column {j} is constant "
                      f"in group {'AB'[k % 2]}"))
    return discrepancies(w[0::2], w[1::2])[0]


def permutation_null(Z, perms, one_minus):
    """Discrepancy statistics for relabelings of pooled data.

    Z is the pooled (2n x p) data matrix; each row of perms is a permutation
    of 0..2n-1 whose first n entries form group A. Returns an int64 array of
    the max step-function gap for each relabeling. Relabelings are processed
    in chunks of about ``_CHUNK_CELLS`` matrix cells.
    """
    count, n2 = perms.shape
    n = n2 // 2
    p = Z.shape[1]
    chunk = max(1, _CHUNK_CELLS // (2 * p * p))
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, chunk):
        rows = perms[start:start + chunk].reshape(-1, 2, n)
        out[start:start + chunk] = mst_discrepancies(Z[rows], one_minus, start)
    return out


def backend() -> str:
    """Name of the kernel backend; the kernels are plain numpy."""
    return "numpy"

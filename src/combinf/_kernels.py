"""Numeric kernels: the merged-sequence discrepancy, an edge-list Kruskal, and
the correlation-MST discrepancy batched over relabelings.

``mst_discrepancies`` is the one definition of the permutation statistic
"two groups' data -> correlation -> sorted MST weights -> D_q": it takes a
whole stack of group pairs and runs every step as array operations, with a
dense Prim MST of p - 1 vectorised argmin steps. The observed statistic calls
it with a stack of one; ``permutation_null`` feeds it relabelings of pooled
data in chunks. All kernels are plain numpy, so ``backend()`` is "numpy".
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Matrix cells per (2 x relabelings, p, p) array in one chunk of the null:
# large enough to amortise numpy's per-call cost, small enough that the
# temporaries stay in cache and peak memory does not grow with the count.
# At n=10, p=40 a chunk of 10 relabelings timed fastest of 2**13..2**17.
_CHUNK_CELLS = 2 ** 15


def discrepancy_sorted(a, b):
    """Max |#{a <= t} - #{b <= t}| over merged values of two sorted arrays.

    Returns (d, argmax_value, ties) where argmax_value is the smallest value
    attaining the max and ties is 1 when some value occurs in both arrays.
    Every step consumes at least one element, so a NaN cannot stall the scan.
    """
    q = a.shape[0]
    i = 0
    j = 0
    best = 0
    best_t = a[0] if a[0] <= b[0] else b[0]
    ties = 0
    while i < q or j < q:
        moved_a = moved_b = False
        if i < q and (j == q or a[i] <= b[j]):
            t = a[i]
            i += 1
            moved_a = True
        else:
            t = b[j]
            j += 1
            moved_b = True
        while i < q and a[i] == t:
            i += 1
            moved_a = True
        while j < q and b[j] == t:
            j += 1
            moved_b = True
        if moved_a and moved_b:
            ties = 1
        diff = i - j if i >= j else j - i
        if diff > best:
            best = diff
            best_t = t
    return best, best_t, ties


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


def sorted_mst_weights(x, one_minus):
    """Sorted correlation-MST edge weights of each group in a stack.

    x is (m, n, p): m groups of n observations of p nodes. The edge weight is
    the column Pearson correlation, or 1 - correlation when one_minus is set,
    and the tree spans all p nodes. Returns an (m, p - 1) array. The column
    means are summed row by row and every Gram matrix is its own product, so
    each weight is the same double as for that group alone. No column may be
    constant within a group.
    """
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
    sorted weights, absorbing values equal across the two rows as
    ``discrepancy_sorted`` does."""
    m, q = wa.shape
    merged = np.concatenate([wa, wb], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.take_along_axis(merged, order, axis=1)
    gap = np.abs(np.cumsum(np.where(order < q, 1, -1), axis=1))
    # Only the last element of each run of equal values ends a step.
    run_end = np.ones((m, 2 * q), dtype=bool)
    run_end[:, :-1] = values[:, 1:] != values[:, :-1]
    return np.max(gap * run_end, axis=1)


def mst_discrepancies(x, one_minus, first=0):
    """D_q between the correlation MSTs of each group pair in a stack.

    x is (m, 2, n, p): pair k compares group x[k, 0] with group x[k, 1].
    Returns an int64 array of m discrepancies. A column that is constant
    within a group has no correlation: that raises ValidationError naming
    the pair, by its index plus ``first``, the group and the column.
    """
    m, _, n, p = x.shape
    const = x.max(axis=2) == x.min(axis=2)
    if const.any():
        k, g, j = np.argwhere(const)[0]
        raise ValidationError(
            f"relabeling {first + k}: column {j} is constant in group "
            f"{'AB'[g]}, so its correlations are undefined")
    w = sorted_mst_weights(x.reshape(2 * m, n, p), one_minus)
    return discrepancies(w[0::2], w[1::2])


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

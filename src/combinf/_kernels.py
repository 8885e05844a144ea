"""Numeric kernels: one spanning-tree routine and the correlation-MST
statistic batched over groups, weighted by the package's ``WeightMode``.

``prim_keys`` (a dense Prim of p - 1 vectorised argmin steps over a stack of
key matrices, which it only reads) is the package's only MST routine. Two kernels are the one
definition of the statistic: ``mst_weights`` (data -> column
``correlations`` -> MST weights, for a stack of groups) and
``discrepancies`` (two rows of weights in any order -> D_q, the smallest
merged value attaining it, and whether the rows share a value, which it
absorbs); its merged argsort is the one ordering of weights.
``permutation_null`` chains them over chunks of a listing of relabelings,
all in two buffers it allocates once (for ``simulation.permutation_test``,
whose relabeling 0 is the observed split).
``simulation.run_combinatorial_trial`` takes each group's ``mst_weights``
to ``mst.compare_msts``, and so to ``exact.discrepancy``, which calls
``discrepancies`` alone, the one place that reports ties
(``ties_absorbed``). ``mst.mst_from_connectivity`` calls ``prim_keys`` on
edge ranks and ``connectivity.pearson_correlation_matrix`` calls
``correlations``. All kernels are plain numpy.
"""

from __future__ import annotations

from enum import Enum

from ._lazy import np

from .errors import ValidationError

# Cells in each of the two (2 x chunk, p, p) float64 buffers that one chunk
# of the null runs in: chunk = max(1, _CHUNK_CELLS // (2 p^2)) relabelings,
# 163 at p = 40, 19 at p = 116, 4 at p = 256 and 1 from p = 363 on. The
# buffers are allocated once per call, at most 4 MiB each up to p = 512 and
# 2 p^2 cells above, so memory does not grow with the count past one chunk.
# Each chunk pays p - 1 Prim steps whatever its size, and 2**19 is the
# smallest power of two that runs each of the benchmark's p = 40 listings
# (47 and 93 relabelings) as one chunk. Measured per relabeling for
# 2**17, 2**18, 2**19, 2**20 and 2**21 cells (2-CPU machine, numpy 2.4.6,
# medians of 15 interleaved calls): n = 10, p = 40, 93 relabelings 0.039,
# 0.037, 0.035, 0.035, 0.034 ms; n = 20, p = 116, 200 relabelings 0.314,
# 0.271, 0.263, 0.244, 0.255 ms. Past 2**19 the gain is small and the
# buffers double; the tracemalloc peak of one call is 10.0 MiB at p = 116,
# 9.0 at p = 256 and 5.4 at p = 400.
_CHUNK_CELLS = 2 ** 19


class WeightMode(str, Enum):
    """How correlations or connectivity entries become tree edge weights:
    as they are, 1 - entry, or as they are on the maximum spanning tree. A
    correlation of exactly 0 is a measured value, an edge to ``mst_weights``;
    a connectivity entry of exactly 0 means "no edge", and
    ``mst.mst_from_connectivity`` drops it in DISTANCE mode."""

    DISTANCE = "distance"
    ONE_MINUS_SIMILARITY = "one_minus_similarity"
    MAX_TREE = "max_tree"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"weight mode must be one of "
                              f"{tuple(m.value for m in cls)}, got {value!r}")


def prim_keys(w):
    """Keys of the edges a dense Prim from node 0 takes, in the order it
    takes them, for each p x p key matrix in an (m, p, p) stack; returns an
    (m, p - 1) array, the transposed view of a (p - 1, m) one.

    Each of the p - 1 steps serves all m matrices at once: it takes each
    matrix's nearest node not yet taken (the first by index on a tie),
    then gathers those nodes' key rows from a flat (m p, p) view of w, by
    one flat index per matrix, into a row buffer reused by every step. w
    is read, never written; a stack that is not C-contiguous is copied
    once. The keys, the diagonal included, must be finite (the diagonal is
    read but never taken), so the result is finite.
    A graph whose keys are all distinct has exactly one MST, so with edge
    ranks as keys the result is Kruskal's tree; every MST has the same
    multiset of keys, so with tied weights as keys the multiset does not
    depend on tie order.
    """
    m, p, _ = w.shape
    # Row v of matrix k is row k p + v of flat; the same flat index names
    # node v of matrix k in dist and floor.
    flat = np.ascontiguousarray(w).reshape(m * p, p)
    base = np.arange(0, m * p, p)
    # -inf for a node not yet taken, +inf once taken: the maximum with it
    # keeps a taken node's distance at +inf, so it is never taken again.
    floor = np.full((m, p), -np.inf)
    floor[:, 0] = np.inf
    dist = np.maximum(w[:, 0], floor)
    floor_flat, dist_flat = floor.reshape(-1), dist.reshape(-1)
    out = np.empty((p - 1, m))
    row = np.empty((m, p))
    for step in range(p - 1):
        idx = dist.argmin(axis=1)
        idx += base
        # Every index is in range; mode="clip" takes into out unbuffered.
        dist_flat.take(idx, out=out[step], mode="clip")
        floor_flat[idx] = np.inf
        flat.take(idx, axis=0, out=row, mode="clip")
        np.minimum(dist, row, out=dist)
        np.maximum(dist, floor, out=dist)
    return out.T


def correlations(x, describe, out=None, work=None):
    """Column Pearson correlations of each group in an (m, n, p) stack of m
    groups of n observations of p nodes; returns (m, p, p), exactly
    symmetric, with the diagonal as computed. out and work are C-ordered
    (m, p, p) float64 buffers, each allocated when not given: the result is
    written into out, work is scratch, and the bits do not depend on what
    they held. The data are made C-ordered and the column means summed row by row, and
    every Gram matrix is its own product, so each correlation is the same
    double whatever the memory layout of x and as for that group alone.
    Each column is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1): the scaling is exact, so the correlations keep
    their bits short of subnormal underflow, and no product overflows
    whatever the data's scale. A column that is constant within a group
    raises ValidationError with ``describe(k, j)`` for the first such
    column j, in group k.
    """
    x = np.ascontiguousarray(x)
    hi, lo = x.max(axis=1), x.min(axis=1)
    const = hi == lo
    if const.any():
        k, j = np.argwhere(const)[0]
        raise ValidationError(describe(k, j))
    # ldexp, not x * 2.0**-e: 2.0**-e overflows for subnormal columns
    a = np.ldexp(x, -np.frexp(np.maximum(hi, -lo))[1][:, None, :])
    m, n, p = a.shape
    mean = np.zeros((m, p))
    for r in range(n):
        mean += a[:, r]
    mean /= n
    a -= mean[:, None, :]
    if out is None:
        out = np.empty((m, p, p))
    if work is None:
        work = np.empty((m, p, p))
    np.matmul(np.ascontiguousarray(a.transpose(0, 2, 1)), a, out=out)
    diag = np.diagonal(out, axis1=1, axis2=2).copy()
    # Mirror the upper triangle: the product need not be exactly symmetric.
    # The divisor diag_i * diag_j is, so the quotient is mirrored with it.
    np.copyto(work, out.transpose(0, 2, 1))
    np.copyto(out, work, where=np.tri(p, k=-1, dtype=bool))
    np.multiply(diag[:, :, None], diag[:, None, :], out=work)
    np.sqrt(work, out=work)
    np.divide(out, work, out=out)
    return out


def mst_weights(x, mode,
                describe=lambda k, j: f"column {j} is constant in group {k}",
                out=None, work=None):
    """Correlation-MST edge weights of each group in an (m, n, p) stack: the
    ``correlations`` of each group, weighted as the WeightMode ``mode``
    says, on a tree spanning all p nodes (every correlation, 0 included, is
    an edge). Returns an (m, p - 1) array, each row in the order Prim takes
    the edges. out and work are the (m, p, p) buffers of ``correlations``.
    A constant column raises ValidationError with ``describe(k, j)``.
    """
    w = correlations(
        x, lambda k, j: f"{describe(k, j)}, so its correlations are undefined",
        out, work)
    if mode is WeightMode.ONE_MINUS_SIMILARITY:
        np.subtract(1.0, w, out=w)
    elif mode is WeightMode.MAX_TREE:
        return -prim_keys(np.negative(w, out=w))
    return prim_keys(w)


def discrepancies(wa, wb):
    """Max step-function gap for each row pair of two (m, q) arrays of
    weights, each row in any order, and the smallest merged value attaining
    it. The gap depends only on the merged order, found by one stable sort.

    Returns (d, at, tied): the m gaps (int64), the values, and whether the
    rows share a value (-0.0 equals 0.0, NaN nothing). The gap is evaluated
    after all values equal to a merged value have been counted in both
    rows, so shared values are absorbed jointly and identical rows give 0.
    """
    m, q = wa.shape
    merged = np.concatenate([wa, wb], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.take_along_axis(merged, order, axis=1)
    in_a = order < q
    gap = np.abs(np.cumsum(np.where(in_a, 1, -1), axis=1))
    # Only the last element of each run of equal values ends a step.
    run_end = np.ones((m, 2 * q), dtype=bool)
    run_end[:, :-1] = values[:, 1:] != values[:, :-1]
    step_gap = gap * run_end
    first = step_gap.argmax(axis=1)
    rows = np.arange(m)
    # The stable sort puts a run's wa values before its wb values, so a run
    # holds both rows iff a wa value is followed by a wb value inside it.
    tied = (~run_end[:, :-1] & in_a[:, :-1] & ~in_a[:, 1:]).any(axis=1)
    return step_gap[rows, first], values[rows, first], tied


def permutation_null(Z, perms, mode):
    """Discrepancy statistics for relabelings of pooled data.

    Z is the pooled (2n x p) data matrix; each row of perms is a permutation
    of 0..2n-1 whose first n entries form group A. Returns an int64 array of
    the max gap for each relabeling, its trees weighted by ``mode``. Relabelings are processed
    in chunks, each in the same two buffers of about ``_CHUNK_CELLS`` matrix
    cells. A column that is constant within a group has no correlation: that
    raises ValidationError naming the relabeling, the group and the column.
    """
    count, n2 = perms.shape
    n = n2 // 2
    p = Z.shape[1]
    chunk = max(1, min(count, _CHUNK_CELLS // (2 * p * p)))
    corr, work = np.empty((2, 2 * chunk, p, p))
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, chunk):
        # Row 2k holds group A of relabeling start + k, row 2k + 1 group B.
        groups = perms[start:start + chunk].reshape(-1, n)
        m = len(groups)
        w = mst_weights(
            Z[groups], mode,
            lambda k, j: (f"relabeling {start + k // 2}: column {j} is "
                          f"constant in group {'AB'[k % 2]}"),
            corr[:m], work[:m])
        out[start:start + chunk] = discrepancies(w[0::2], w[1::2])[0]
    return out


def backend() -> str:
    """Name of the kernel backend; the kernels are plain numpy."""
    return "numpy"

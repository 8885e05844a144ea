import numpy as np
import pytest

from combinf import _kernels
from combinf.simulation import RngStream, simulate_modular_pair
from kruskal_reference import WeightedGraph, kruskal_mst


def reference_mst_weights(group, one_minus):
    """One group's correlation-MST weights, built edge by edge: centred Gram,
    G / sqrt(Gii * Gjj), then the reference Kruskal."""
    n, p = group.shape
    mean = np.zeros(p)
    for r in range(n):
        mean += group[r]
    mean /= n
    centred = group - mean
    gram = np.dot(centred.T.copy(), centred)
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            corr = gram[i, j] / np.sqrt(gram[i, i] * gram[j, j])
            edges.append((i, j, 1.0 - corr if one_minus else corr))
    g = WeightedGraph(tuple(f"n{k}" for k in range(p)), tuple(edges))
    return np.sort(kruskal_mst(g).weights)


def reference_gap(a, b):
    """D and the smallest value attaining it, by evaluating both step
    functions #{a <= t} and #{b <= t} at every merged value t."""
    merged = np.unique(np.concatenate([a, b]))
    gap = np.abs(np.searchsorted(a, merged, side="right")
                 - np.searchsorted(b, merged, side="right"))
    k = int(np.argmax(gap))
    return int(gap[k]), float(merged[k])


def reference_null(pooled, perms, one_minus):
    n = perms.shape[1] // 2
    return np.array([
        reference_gap(reference_mst_weights(pooled[perm[:n]], one_minus),
                      reference_mst_weights(pooled[perm[n:]], one_minus))[0]
        for perm in perms])


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("one_minus", [False, True])
def test_permutation_null_matches_per_relabeling_reference(sigma, one_minus):
    n, p = 10, 40
    a, b = simulate_modular_pair(n, p, 4, 8, sigma, RngStream(31, 0))
    pooled = np.vstack([a.values, b.values])
    rng = np.random.default_rng(32)
    chunk = _kernels._CHUNK_CELLS // (2 * p * p)
    # more than two chunks, the last one partial, and a lone relabeling
    perms = np.array([rng.permutation(2 * n) for _ in range(2 * chunk + 3)])
    for batch in (perms, perms[:1]):
        got = _kernels.permutation_null(pooled, batch, one_minus)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_null(pooled, batch, one_minus))


def test_discrepancy_kernel_matches_reference():
    rng = np.random.default_rng(78)
    for trial in range(300):
        m, q = int(rng.integers(1, 6)), int(rng.integers(1, 25))
        if trial % 2:
            # a small integer grid forces ties within a row and across rows
            wa, wb = (np.sort(rng.integers(0, 6, (m, q)), axis=1).astype(float)
                      for _ in range(2))
        else:
            wa, wb = (np.sort(rng.standard_normal((m, q)), axis=1)
                      for _ in range(2))
        d, at = _kernels.discrepancies(wa, wb)
        assert d.dtype == np.int64
        for k in range(m):
            assert (int(d[k]), float(at[k])) == reference_gap(wa[k], wb[k])


def test_discrepancy_kernel_terminates_on_nan():
    # NaN equals nothing, not even itself, so each NaN ends its own run.
    a = np.array([[0.1, 0.5, np.nan]])
    b = np.array([[0.2, np.nan, np.nan]])
    d, _ = _kernels.discrepancies(a, b)
    assert 0 <= d[0] <= 3


def test_group_mst_weights_matches_high_level_pipeline():
    from combinf.connectivity import DataMatrix, pearson_correlation_matrix
    from combinf.mst import WeightMode, mst_from_connectivity
    rng = np.random.default_rng(79)
    for _ in range(10):
        n, p = 10, int(rng.integers(4, 20))
        data = rng.standard_normal((n, p))
        kernel = _kernels.sorted_mst_weights(data[None], True)[0]
        cm = pearson_correlation_matrix(DataMatrix(data))
        weights = mst_from_connectivity(
            cm, WeightMode.ONE_MINUS_SIMILARITY).weights
        assert np.array_equal(kernel, weights)


def test_correlations_do_not_depend_on_scale():
    # Scaling by a power of two is exact, so the correlations keep their
    # bits even where the squares of the scaled data would overflow or
    # underflow.
    rng = np.random.default_rng(81)

    def describe(k, j):
        return f"column {j} in group {k}"
    for _ in range(40):
        m, n, p = (int(k) for k in rng.integers((1, 3, 2), (4, 30, 40)))
        x = rng.standard_normal((m, n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        x += rng.uniform(-5, 5, p)
        want = _kernels.correlations(x, describe)
        for k in (-500, -200, -1, 1, 200, 500):
            assert np.array_equal(_kernels.correlations(x * 2.0 ** k, describe),
                                  want), k
        columns = x * 2.0 ** rng.integers(-500, 501, p)
        assert np.array_equal(_kernels.correlations(columns, describe), want)


@pytest.mark.parametrize("one_minus", [False, True])
def test_weights_do_not_depend_on_memory_layout(one_minus):
    # A Fortran-ordered copy holds the same numbers; the matmul would sum
    # them in another order unless the kernel makes the data C-ordered.
    rng = np.random.default_rng(80)
    for _ in range(40):
        n, p = int(rng.integers(3, 30)), int(rng.integers(3, 60))
        data = rng.standard_normal((n, p))
        c_order = _kernels.sorted_mst_weights(data[None], one_minus)
        f_order = _kernels.sorted_mst_weights(
            np.asfortranarray(data)[None], one_minus)
        assert np.array_equal(c_order, f_order)

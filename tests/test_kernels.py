import tracemalloc

import numpy as np
import pytest

from combinf import _kernels
from combinf.connectivity import DataMatrix, pearson_correlation_matrix
from combinf.errors import ValidationError
from combinf.mst import WeightMode, mst_from_connectivity
from combinf.simulation import RngStream, simulate_modular_pair
from kruskal_reference import WeightedGraph, kruskal_mst


def reference_mst_weights(group, mode):
    """One group's correlation-MST weights, built edge by edge: centred Gram,
    G / sqrt(Gii * Gjj), then the reference Kruskal (on the negated
    correlations for MAX_TREE, which reports the correlations)."""
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
            edges.append((i, j, {WeightMode.DISTANCE: corr,
                                 WeightMode.ONE_MINUS_SIMILARITY: 1.0 - corr,
                                 WeightMode.MAX_TREE: -corr}[mode]))
    g = WeightedGraph(tuple(f"n{k}" for k in range(p)), tuple(edges))
    weights = kruskal_mst(g).weights
    return np.sort(-weights if mode is WeightMode.MAX_TREE else weights)


def reference_gap(a, b):
    """D and the smallest value attaining it, by evaluating both step
    functions #{a <= t} and #{b <= t} at every merged value t."""
    merged = np.unique(np.concatenate([a, b]))
    gap = np.abs(np.searchsorted(a, merged, side="right")
                 - np.searchsorted(b, merged, side="right"))
    k = int(np.argmax(gap))
    return int(gap[k]), float(merged[k])


def reference_prim_keys(key):
    """The keys a Prim from node 0 takes on one p x p key matrix, in the
    order it takes them, one node and one comparison at a time: the node
    taken is the first, by index, of the nearest not yet taken."""
    p = len(key)
    taken = [True] + [False] * (p - 1)
    dist = list(key[0])
    keys = []
    for _ in range(p - 1):
        v = min((u for u in range(p) if not taken[u]), key=lambda u: dist[u])
        keys.append(dist[v])
        taken[v] = True
        for u in range(p):
            if not taken[u] and key[v][u] < dist[u]:
                dist[u] = key[v][u]
    return keys


def reference_null(pooled, perms, mode):
    n = perms.shape[1] // 2
    return np.array([
        reference_gap(reference_mst_weights(pooled[perm[:n]], mode),
                      reference_mst_weights(pooled[perm[n:]], mode))[0]
        for perm in perms])


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("mode", list(WeightMode))
def test_permutation_null_matches_per_relabeling_reference(sigma, mode,
                                                           monkeypatch):
    n, p = 10, 40
    a, b = simulate_modular_pair(n, p, 4, 8, sigma, RngStream(31, 0))
    pooled = np.vstack([a.values, b.values])
    rng = np.random.default_rng(32)
    perms = np.array([rng.permutation(2 * n) for _ in range(23)])
    expected = reference_null(pooled, perms, mode)
    # The default chunk holds all 23 relabelings at p = 40.
    assert _kernels._CHUNK_CELLS // (2 * p * p) >= len(perms)
    # The null is bit-identical for one relabeling a chunk, five a chunk
    # (five chunks in the same two buffers, the last one partial) and the
    # default chunk; and for a lone relabeling.
    for cells in (2 * p * p, 5 * 2 * p * p, _kernels._CHUNK_CELLS):
        monkeypatch.setattr(_kernels, "_CHUNK_CELLS", cells)
        for count in (len(perms), 1):
            got = _kernels.permutation_null(pooled, perms[:count], mode)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected[:count]), (cells, count)


def test_permutation_null_at_p116_does_not_depend_on_the_chunk(monkeypatch):
    n, p = 6, 116
    a, b = simulate_modular_pair(n, p, 4, 4, 0.1, RngStream(37, 0))
    pooled = np.vstack([a.values, b.values])
    rng = np.random.default_rng(38)
    perms = np.array([rng.permutation(2 * n) for _ in range(200)])
    mode = WeightMode.ONE_MINUS_SIMILARITY
    # The listing is longer than the default chunk, so the default runs it
    # as several chunks, the last one partial.
    assert 23 > _kernels._CHUNK_CELLS // (2 * p * p) > 1
    default = _kernels.permutation_null(pooled, perms[:23], mode)
    # The peak does not grow with the count: 40 and 200 relabelings run in
    # the same two buffers.
    peaks = []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for count in (40, 200):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _kernels.permutation_null(pooled, perms[:count], mode)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", 2 * p * p)
    one = _kernels.permutation_null(pooled, perms[:23], mode)
    assert one.dtype == default.dtype == np.int64
    assert np.array_equal(one, default)


@pytest.mark.parametrize("group", ["A", "B"])
def test_constant_column_in_a_later_chunk_names_its_relabeling(group,
                                                               monkeypatch):
    # Column 3 is constant on rows 0..n-1 only, so the one relabeling whose
    # group A (or B) is exactly those rows, number 17, fails; at five a
    # chunk it is in the fourth chunk, after three chunks have run.
    n, p = 6, 12
    a, b = simulate_modular_pair(n, p, 3, 6, 0.1, RngStream(33, 0))
    pooled = np.vstack([a.values, b.values])
    pooled[:n, 3] = 0.5
    rng = np.random.default_rng(34)
    perms = np.array([rng.permutation(2 * n) for _ in range(23)])
    split = np.arange(2 * n)
    perms[17] = split if group == "A" else np.roll(split, n)
    mode = WeightMode.ONE_MINUS_SIMILARITY
    assert _kernels.permutation_null(pooled, perms[:17], mode).shape == (17,)
    for cells in (5 * 2 * p * p, _kernels._CHUNK_CELLS):
        monkeypatch.setattr(_kernels, "_CHUNK_CELLS", cells)
        with pytest.raises(ValidationError) as err:
            _kernels.permutation_null(pooled, perms, mode)
        assert str(err.value) == (
            f"relabeling 17: column 3 is constant in group {group}, so its "
            "correlations are undefined")


def test_prim_keys_leaves_its_input_unchanged():
    rng = np.random.default_rng(36)
    for _ in range(20):
        m, p = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        w = rng.standard_normal((m, p, p))
        w = w + w.transpose(0, 2, 1)
        if p > 3:
            w[:, 1, 2] = w[:, 2, 1] = w[:, 0, 3]  # a tie
        before = w.copy()
        keys = _kernels.prim_keys(w)
        assert keys.shape == (m, p - 1)
        assert np.isfinite(keys).all()
        assert w.tobytes() == before.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 40])
@pytest.mark.parametrize("m", [1, 2, 9])
def test_prim_keys_match_a_scalar_prim_bit_for_bit(m, p):
    rng = np.random.default_rng(1000 * m + p)
    # Keys from {1, ..., p + 1} tie often, though not so often that every
    # key taken is the smallest; keys from a normal draw do not tie. Zero is
    # left out, as -0.0 and 0.0 tie but differ in their bits.
    draws = [rng.integers(1, p + 2, (m, p, p)).astype(float) for _ in range(3)]
    for w in draws + [rng.standard_normal((m, p, p)) + 10.0]:
        sym = w + w.transpose(0, 2, 1)
        # The transposed view of an asymmetric stack is not contiguous.
        for stack in (sym, w.transpose(0, 2, 1)):
            before = stack.copy()
            keys = _kernels.prim_keys(stack)
            assert keys.shape == (m, p - 1)
            assert stack.tobytes() == before.tobytes()
            for k in range(m):
                want = np.array(reference_prim_keys(stack[k].tolist()))
                assert keys[k].tobytes() == want.tobytes(), k


def test_correlations_into_buffers_match_a_fresh_call():
    rng = np.random.default_rng(35)

    def describe(k, j):
        return f"column {j} in group {k}"
    buffers = np.full((2, 12, 50, 50), np.nan)
    for _ in range(20):
        m, n, p = (int(k) for k in rng.integers((1, 3, 2), (13, 20, 51)))
        x = rng.standard_normal((m, n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        fresh = _kernels.correlations(x, describe)
        # Buffers that held other data, as they do from chunk to chunk.
        out, work = (b.reshape(-1)[:m * p * p].reshape(m, p, p)
                     for b in buffers)
        got = _kernels.correlations(x, describe, out, work)
        assert got is out
        assert got.tobytes() == fresh.tobytes()
        assert np.array_equal(got, got.transpose(0, 2, 1))


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
        d, at, _ = _kernels.discrepancies(wa, wb)
        assert d.dtype == np.int64
        for k in range(m):
            assert (int(d[k]), float(at[k])) == reference_gap(wa[k], wb[k])


def test_discrepancy_kernel_terminates_on_nan():
    # NaN equals nothing, not even itself, so each NaN ends its own run.
    a = np.array([[0.1, 0.5, np.nan]])
    b = np.array([[0.2, np.nan, np.nan]])
    d, _, _ = _kernels.discrepancies(a, b)
    assert 0 <= d[0] <= 3


def test_group_mst_weights_matches_high_level_pipeline():
    rng = np.random.default_rng(79)
    for _ in range(10):
        n, p = 10, int(rng.integers(4, 20))
        data = rng.standard_normal((n, p))
        cm = pearson_correlation_matrix(DataMatrix(data))
        for mode in WeightMode:
            kernel = _kernels.mst_weights(data[None], mode)[0]
            weights = mst_from_connectivity(cm, mode).weights
            assert np.array_equal(np.sort(kernel), weights), mode


def test_exact_zero_correlation_is_an_edge_of_the_kernel_only():
    # The centred columns 0 and 1 are orthogonal, so their correlation is
    # exactly 0: a measured value, which the kernel keeps as an edge in
    # DISTANCE mode, while a matrix entry of 0 is no edge.
    data = np.array([[1.0, 1.0, 2.0], [-1.0, 1.0, 0.0],
                     [1.0, -1.0, 0.0], [-1.0, -1.0, -2.0]])
    cm = pearson_correlation_matrix(DataMatrix(data))
    r = cm.values[0, 2]
    assert cm.values[0, 1] == 0.0 and cm.values[1, 2] == r
    kernel = np.sort(_kernels.mst_weights(data[None], WeightMode.DISTANCE)[0])
    assert kernel.tolist() == [0.0, r]
    forest = mst_from_connectivity(cm, WeightMode.DISTANCE)
    assert forest.weights.tolist() == [r, r]
    assert forest.edges.tolist() == [[0, 2], [1, 2]]
    # The other modes keep every entry, and the two routes agree.
    for mode in (WeightMode.ONE_MINUS_SIMILARITY, WeightMode.MAX_TREE):
        assert np.array_equal(
            np.sort(_kernels.mst_weights(data[None], mode)[0]),
            mst_from_connectivity(cm, mode).weights), mode


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


@pytest.mark.parametrize("mode", list(WeightMode))
def test_weights_do_not_depend_on_memory_layout(mode):
    # A Fortran-ordered copy holds the same numbers; the matmul would sum
    # them in another order unless the kernel makes the data C-ordered.
    rng = np.random.default_rng(80)
    for _ in range(40):
        n, p = int(rng.integers(3, 30)), int(rng.integers(3, 60))
        data = rng.standard_normal((n, p))
        c_order = _kernels.mst_weights(data[None], mode)
        f_order = _kernels.mst_weights(np.asfortranarray(data)[None], mode)
        assert np.array_equal(c_order, f_order)

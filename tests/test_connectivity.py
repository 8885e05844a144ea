import numpy as np
import pytest

from combinf import connectivity as conn
from combinf.errors import ValidationError


def make_matrix(rng, labels):
    p = len(labels)
    data = rng.standard_normal((12, p))
    return conn.pearson_correlation_matrix(conn.DataMatrix(data), labels=labels)


class TestDataMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            conn.DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_too_small(self):
        with pytest.raises(ValidationError):
            conn.DataMatrix(np.ones((1, 5)))


class TestPearson:
    def test_duplicated_column(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        x[:, 2] = x[:, 0]
        cm = conn.pearson_correlation_matrix(x)
        assert cm.values[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 2))
        x[:, 1] = -x[:, 0]
        cm = conn.pearson_correlation_matrix(x)
        assert cm.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_named(self):
        # A column of 0.1s has std 1.4e-17, not 0: 0.1 is not a binary fraction.
        for value in (7.0, 0.1):
            x = np.random.default_rng(2).standard_normal((10, 3))
            x[:, 1] = value
            with pytest.raises(ValidationError, match="column 1"):
                conn.pearson_correlation_matrix(x)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cm = conn.pearson_correlation_matrix(rng.standard_normal((10, 6)))
            assert np.array_equal(cm.values, cm.values.T)
            assert np.all(np.diag(cm.values) == 1.0)
            assert np.all(np.abs(cm.values) <= 1.0 + 1e-12)

    def test_independent_columns_modest_correlation(self):
        rng = np.random.default_rng(4)
        mags = []
        for _ in range(200):
            cm = conn.pearson_correlation_matrix(rng.standard_normal((10, 4)))
            iu = np.triu_indices(4, k=1)
            mags.append(np.abs(cm.values[iu]).mean())
        assert np.mean(mags) < 0.5


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        a = np.array([0.3, 1.0, 2.5, 7.0])
        assert conn.spearman_correlation(a, np.exp(a)) == pytest.approx(1.0)

    def test_reversal_gives_minus_one(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert conn.spearman_correlation(a, a[::-1].copy()) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert conn.spearman_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            conn.spearman_correlation([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            conn.spearman_correlation([1, 2], [3, 4])

    def test_rank_transform_invariance(self):
        rng = np.random.default_rng(9)
        maps = [lambda x: 2 * x + 1, np.exp, np.arctan, lambda x: x ** 3]
        for _ in range(200):
            n = int(rng.integers(4, 30))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            base = conn.spearman_correlation(a, b)
            f = maps[rng.integers(len(maps))]
            assert conn.spearman_correlation(f(a), b) == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(15)
        b = rng.standard_normal(15)
        assert conn.spearman_correlation(a, b) == pytest.approx(
            conn.spearman_correlation(b, a), abs=1e-15)


class TestTwinEdgewise:
    def _cohort(self, rng, m=5, p=4, mirror=False):
        labels = tuple(f"r{k}" for k in range(p))
        pairs = []
        for _ in range(m):
            a = make_matrix(rng, labels)
            b = a if mirror else make_matrix(rng, labels)
            pairs.append((a, b))
        return conn.TwinCohort(tuple(pairs))

    def test_mirrored_twins_give_one(self):
        cohort = self._cohort(np.random.default_rng(20), mirror=True)
        cm = conn.twin_edgewise_correlation(cohort)
        iu = np.triu_indices(cohort.p, k=1)
        assert np.allclose(cm.values[iu], 1.0)

    def test_independent_twins_center_near_zero(self):
        cohort = self._cohort(np.random.default_rng(21), m=40)
        cm = conn.twin_edgewise_correlation(cohort)
        iu = np.triu_indices(cohort.p, k=1)
        assert abs(cm.values[iu].mean()) < 0.3

    def test_degenerate_edge_warns_and_zeroes(self):
        labels = ("a", "b", "c")
        pairs = []
        rng = np.random.default_rng(22)
        for _ in range(4):
            va = rng.uniform(-0.5, 0.5, (3, 3))
            va = (va + va.T) / 2
            np.fill_diagonal(va, 1.0)
            va[0, 1] = va[1, 0] = 0.25  # constant edge across all pairs
            vb = va.copy()
            pairs.append((conn.ConnectivityMatrix(labels, va),
                          conn.ConnectivityMatrix(labels, vb)))
        with pytest.warns(conn.DegenerateEdgeWarning):
            cm = conn.twin_edgewise_correlation(conn.TwinCohort(tuple(pairs)))
        assert cm.values[0, 1] == 0.0

    def test_cohort_needs_three_pairs(self):
        rng = np.random.default_rng(23)
        labels = ("a", "b")
        m = make_matrix(rng, labels)
        with pytest.raises(ValidationError):
            conn.TwinCohort(((m, m), (m, m)))

    def test_full_swap_symmetry(self):
        cohort = self._cohort(np.random.default_rng(24))
        swapped = conn.TwinCohort(tuple((b, a) for a, b in cohort.pairs))
        c1 = conn.twin_edgewise_correlation(cohort)
        c2 = conn.twin_edgewise_correlation(swapped)
        assert np.allclose(c1.values, c2.values, atol=1e-14)

    def test_symmetrize_invariant_under_single_pair_swap(self):
        cohort = self._cohort(np.random.default_rng(25))
        pairs = list(cohort.pairs)
        pairs[1] = (pairs[1][1], pairs[1][0])
        flipped = conn.TwinCohort(tuple(pairs))
        c1 = conn.twin_edgewise_correlation(cohort, symmetrize=True)
        c2 = conn.twin_edgewise_correlation(flipped, symmetrize=True)
        assert np.allclose(c1.values, c2.values, atol=1e-12)


class TestHeritability:
    def test_direct_arithmetic(self):
        labels = ("a", "b")
        mz = conn.ConnectivityMatrix(labels, np.array([[1.0, 0.6], [0.6, 1.0]]))
        dz = conn.ConnectivityMatrix(labels, np.array([[1.0, 0.35], [0.35, 1.0]]))
        hi = conn.heritability_index(mz, dz)
        assert hi.values[0, 1] == pytest.approx(0.5)

    def test_equal_matrices_zero_map(self):
        rng = np.random.default_rng(30)
        cm = make_matrix(rng, ("a", "b", "c"))
        hi = conn.heritability_index(cm, cm)
        assert np.all(hi.values == 0.0)

    def test_negative_reported_raw(self):
        labels = ("a", "b")
        mz = conn.ConnectivityMatrix(labels, np.array([[1.0, 0.2], [0.2, 1.0]]))
        dz = conn.ConnectivityMatrix(labels, np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert conn.heritability_index(mz, dz).values[0, 1] == pytest.approx(-0.6)
        assert conn.heritability_index(mz, dz, clamp=True).values[0, 1] == 0.0

    def test_label_mismatch(self):
        mz = conn.ConnectivityMatrix(("a", "b"), np.eye(2))
        dz = conn.ConnectivityMatrix(("a", "c"), np.eye(2))
        with pytest.raises(ValidationError):
            conn.heritability_index(mz, dz)

import math
from itertools import combinations

import numpy as np
import pytest

from combinf import mst
from combinf.connectivity import ConnectivityMatrix
from combinf.errors import ValidationError
from kruskal_reference import (UnionFind, WeightedGraph, in_weight_order,
                               kruskal_mst, kruskal_of_matrix)


def random_connected_graph(rng, p):
    """Random weighted graph on p nodes, guaranteed connected via a spine."""
    edges = {}
    order = rng.permutation(p)
    for a, b in zip(order, order[1:]):
        i, j = int(min(a, b)), int(max(a, b))
        edges[(i, j)] = float(rng.uniform(0.1, 10))
    for i in range(p):
        for j in range(i + 1, p):
            if (i, j) not in edges and rng.random() < 0.5:
                edges[(i, j)] = float(rng.uniform(0.1, 10))
    labels = tuple(f"n{k}" for k in range(p))
    return WeightedGraph(labels, tuple((i, j, w) for (i, j), w in edges.items()))


def exhaustive_min_tree(g):
    """Minimum spanning tree by trying every (p-1)-edge subset; returns the
    sorted weight tuple of the best tree."""
    p = g.p
    best = None
    best_weights = None
    for subset in combinations(g.edges, p - 1):
        uf = UnionFind(p)
        for i, j, _ in subset:
            uf.union(i, j)
        if uf.components == 1:
            weights = tuple(sorted(w for _, _, w in subset))
            total = math.fsum(weights)
            if best is None or total < best:
                best = total
                best_weights = weights
    return best_weights


def exhaustive_min_tree_weight(g):
    return math.fsum(exhaustive_min_tree(g))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            WeightedGraph(("a", "b"), ((0, 0, 1.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValidationError):
            WeightedGraph(("a", "b"), ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            WeightedGraph(("a", "b"), ((0, 2, 1.0),))


class TestKruskal:
    def test_triangle(self):
        g = WeightedGraph(("a", "b", "c"),
                          ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)))
        forest = kruskal_mst(g)
        assert np.array_equal(forest.edges, [[0, 1], [1, 2]])
        assert np.array_equal(forest.weights, [1.0, 2.0])
        assert forest.component_count == 1

    def test_path_graph_is_its_own_tree(self):
        g = WeightedGraph(tuple("abcd"),
                          ((0, 1, 2.0), (1, 2, 1.0), (2, 3, 5.0)))
        forest = kruskal_mst(g)
        got = zip(*forest.edges.T.tolist(), forest.weights.tolist())
        assert set(got) == set(g.edges)

    def test_single_node_rejected(self):
        with pytest.raises(ValidationError):
            kruskal_mst(WeightedGraph(("a",), ()))

    def test_insertion_order_nondecreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            forest = kruskal_mst(random_connected_graph(rng, int(rng.integers(2, 9))))
            assert in_weight_order(forest)

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = int(rng.integers(3, 7))
            g = random_connected_graph(rng, p)
            forest = kruskal_mst(g)
            assert forest.component_count == 1
            assert forest.edges.shape == (p - 1, 2)
            total = sum(forest.weights)
            assert total == pytest.approx(exhaustive_min_tree_weight(g), rel=1e-12)

    def test_edge_plus_component_count(self):
        g = WeightedGraph(tuple("abcde"), ((0, 1, 1.0), (2, 3, 1.0)))
        forest = kruskal_mst(g)
        assert len(forest.weights) + forest.component_count == 5


class TestFromConnectivity:
    def test_uniform_similarity(self):
        p = 5
        values = np.full((p, p), 0.5)
        np.fill_diagonal(values, 1.0)
        cm = ConnectivityMatrix(tuple("abcde"), values)
        forest = mst.mst_from_connectivity(cm, "one_minus_similarity")
        assert np.array_equal(forest.weights, np.full(p - 1, 0.5))

    def test_max_tree_matches_one_minus(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = int(rng.integers(3, 10))
            s = rng.uniform(-0.9, 0.9, (p, p))
            s = (s + s.T) / 2
            np.fill_diagonal(s, 1.0)
            cm = ConnectivityMatrix(tuple(f"n{k}" for k in range(p)), s)
            f1 = mst.mst_from_connectivity(cm, mst.WeightMode.ONE_MINUS_SIMILARITY)
            f2 = mst.mst_from_connectivity(cm, mst.WeightMode.MAX_TREE)
            e1 = set(map(tuple, f1.edges.tolist()))
            e2 = set(map(tuple, f2.edges.tolist()))
            assert e1 == e2

    def test_distance_mode_skips_zeros(self):
        values = np.array([[0.0, 2.0, 0.0],
                           [2.0, 0.0, 3.0],
                           [0.0, 3.0, 0.0]])
        cm = ConnectivityMatrix(("a", "b", "c"), values)
        forest = mst.mst_from_connectivity(cm, "distance")
        assert np.array_equal(forest.edges, [[0, 1], [1, 2]])
        assert np.array_equal(forest.weights, [2.0, 3.0])

    def test_matches_kruskal_reference(self):
        # Prim on edge ranks must return kruskal_mst's tree edge for edge, in
        # insertion order, under heavy ties, absent edges and equal entries.
        rng = np.random.default_rng(41)
        for it in range(300):
            p = int(rng.integers(2, 12))
            if it % 3 == 0:
                s = np.full((p, p), float(rng.integers(-1, 2)) / 2)
            else:
                s = np.round(rng.uniform(-1, 1, (p, p)), int(rng.integers(0, 3)))
                s[rng.random((p, p)) < 0.4] = 0.0
            s = np.triu(s, 1)
            s = s + s.T
            labels = tuple(f"n{k}" for k in range(p))
            for mode in mst.WeightMode:
                ref = kruskal_of_matrix(s, mode)
                got = mst.mst_from_connectivity(ConnectivityMatrix(labels, s), mode)
                assert np.array_equal(got.edges, ref.edges), (it, mode)
                assert np.array_equal(got.weights, ref.weights), (it, mode)
                assert got.component_count == ref.component_count, (it, mode)
                assert in_weight_order(got), (it, mode)

    @staticmethod
    def sorts_and_matches_kruskal(monkeypatch, s, mode):
        """The kind of each argsort call that mst_from_connectivity makes
        on s, after checking its forest against kruskal_of_matrix edge for
        edge, signed zeros included."""
        kinds = []
        real = np.argsort

        def spy(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return real(a, *args, **kwargs)

        labels = tuple(f"n{k}" for k in range(len(s)))
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", spy)
            got = mst.mst_from_connectivity(ConnectivityMatrix(labels, s), mode)
        ref = kruskal_of_matrix(s, mode)
        assert np.array_equal(got.edges, ref.edges)
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.component_count == ref.component_count
        return kinds

    @pytest.mark.parametrize("mode", list(mst.WeightMode))
    def test_tie_free_weights_take_the_default_sort(self, monkeypatch, mode):
        # 7,140 distinct weights: one ascending order, found by the
        # unstable sort alone
        rng = np.random.default_rng(5)
        s = np.triu(rng.uniform(-1, 1, (120, 120)), 1)
        s = s + s.T + np.eye(120)
        w = s[np.triu_indices(120, 1)]
        assert np.unique(1.0 - w if mode is mst.WeightMode.ONE_MINUS_SIMILARITY
                         else w).size == w.size
        assert self.sorts_and_matches_kruskal(monkeypatch, s, mode) == [None]

    @pytest.mark.parametrize("mode", list(mst.WeightMode))
    def test_one_planted_tie_takes_the_stable_sort(self, monkeypatch, mode):
        # Distinct weights but one pair: edges (0, 2) and (1, 2) tie, and
        # come right after edge (0, 1) in the mode's order, so only the
        # first of them by (i, j) joins the tree.
        rng = np.random.default_rng(6)
        p = 60
        s = np.triu(rng.uniform(0.1, 0.9, (p, p)), 1)
        first, tied = ((0.01, 0.02) if mode is mst.WeightMode.DISTANCE
                       else (0.99, 0.98))
        s[0, 1], s[0, 2], s[1, 2] = first, tied, tied
        s = s + s.T + np.eye(p)
        assert np.unique(s[np.triu_indices(p, 1)]).size == p * (p - 1) // 2 - 1
        assert self.sorts_and_matches_kruskal(monkeypatch, s, mode) == [
            None, "stable"]
        forest = mst.mst_from_connectivity(s, mode)
        edges = set(map(tuple, forest.edges.tolist()))
        assert (0, 2) in edges and (1, 2) not in edges

    @pytest.mark.parametrize("mode", list(mst.WeightMode))
    def test_signed_zeros_tie(self, monkeypatch, mode):
        # Edges (0, 1) = -0.0 and (0, 2) = 0.0 compare equal: after edge
        # (1, 2), the largest entry, only (0, 1) joins the tree, with its
        # sign. In DISTANCE mode both are absent edges and no weights tie.
        rng = np.random.default_rng(7)
        p = 6
        s = np.triu(rng.uniform(-0.9, -0.1, (p, p)), 1)
        s = s + s.T + np.eye(p)
        for (i, j), x in {(0, 1): -0.0, (0, 2): 0.0, (1, 2): 0.5}.items():
            s[i, j] = s[j, i] = x
        kinds = self.sorts_and_matches_kruskal(monkeypatch, s, mode)
        if mode is mst.WeightMode.DISTANCE:
            assert kinds == [None]
        else:
            assert kinds == [None, "stable"]
            forest = mst.mst_from_connectivity(s, mode)
            edges = forest.edges.tolist()
            assert [0, 1] in edges and [0, 2] not in edges

    def test_asymmetric_rejected(self):
        values = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0,1\)|\(1,0\)"):
            mst.mst_from_connectivity(values, "distance")

    def test_nonfinite_rejected(self):
        values = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError):
            mst.mst_from_connectivity(values, "distance")

    @pytest.mark.parametrize("mode", list(mst.WeightMode))
    def test_one_node_is_a_forest_without_edges(self, mode):
        forest = mst.mst_from_connectivity(np.ones((1, 1)), mode)
        assert forest.edges.shape == (0, 2)
        assert forest.weights.shape == (0,)
        assert forest.component_count == 1

    def test_no_nodes_rejected(self):
        with pytest.raises(ValidationError, match="no nodes"):
            mst.mst_from_connectivity(np.zeros((0, 0)))


class TestCompare:
    def test_identical(self):
        w = np.array([0.1, 0.2, 0.7])
        res, pv = mst.compare_msts(w, w)
        assert res.d == 0
        assert float(pv) == 1.0
        assert res.ties_absorbed

    def test_disjoint_supports(self):
        wa = np.array([0.1, 0.2, 0.3])
        wb = np.array([0.4, 0.5, 0.6])
        res, pv = mst.compare_msts(wa, wb)
        assert res.d == 3
        assert float(pv) == pytest.approx(0.1)

    def test_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = int(rng.integers(1, 20))
            wa = np.sort(rng.standard_normal(q))
            wb = np.sort(rng.standard_normal(q))
            ab, pv_ab = mst.compare_msts(wa, wb)
            ba, pv_ba = mst.compare_msts(wb, wa)
            assert ab.d == ba.d
            assert pv_ab == pv_ba

    def test_length_mismatch(self):
        wa = np.array([0.1])
        wb = np.array([0.1, 0.2])
        with pytest.raises(ValidationError):
            mst.compare_msts(wa, wb)


class TestLocalize:
    def _forests(self):
        labels = tuple("abcd")
        fa = mst.SpanningForest(labels, np.array([[0, 1], [1, 2], [2, 3]]),
                                np.array([0.2, 0.5, 0.9]))
        fb = mst.SpanningForest(labels, np.array([[0, 2], [1, 3], [0, 3]]),
                                np.array([0.4, 0.5, 0.7]))
        return fa, fb

    def test_radius_zero_single_edge(self):
        fa, fb = self._forests()
        assert mst.localize_nodes(fa, fb, 0.2, 0.0) == ["a", "b"]

    def test_full_radius_all_nodes(self):
        fa, fb = self._forests()
        assert mst.localize_nodes(fa, fb, 0.5, 10.0) == ["a", "b", "c", "d"]

    def test_radius_monotone(self):
        rng = np.random.default_rng(31)
        fa, fb = self._forests()
        for _ in range(200):
            center = float(rng.uniform(0, 1))
            r1, r2 = sorted(rng.uniform(0, 1, 2))
            s1 = set(mst.localize_nodes(fa, fb, center, r1))
            s2 = set(mst.localize_nodes(fa, fb, center, r2))
            assert s1 <= s2

    def test_matches_edge_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = int(rng.integers(2, 9))
            fa = kruskal_mst(random_connected_graph(rng, p))
            fb = kruskal_mst(random_connected_graph(rng, p))
            center, radius = float(rng.uniform(0, 10)), float(rng.uniform(0, 3))
            want = set()
            for forest in (fa, fb):
                for (i, j), w in zip(forest.edges.tolist(), forest.weights.tolist()):
                    if center - radius <= w <= center + radius:
                        want |= {forest.node_labels[i], forest.node_labels[j]}
            assert mst.localize_nodes(fa, fb, center, radius) == sorted(want)

    def test_negative_radius_rejected(self):
        fa, fb = self._forests()
        for radius in (-0.1, float("nan")):
            with pytest.raises(ValidationError, match="radius must be >= 0"):
                mst.localize_nodes(fa, fb, 0.5, radius)

    def test_non_finite_center_rejected(self):
        fa, fb = self._forests()
        for center in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match="center must be finite"):
                mst.localize_nodes(fa, fb, center, 1.0)


class TestGrowthCurve:
    def test_points(self):
        w = np.array([0.1, 0.4, 0.9])
        assert mst.growth_curve(w) == [(0.1, 1), (0.4, 2), (0.9, 3)]

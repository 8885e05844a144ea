import math
from itertools import combinations

import numpy as np
import pytest

from combinf import exact, mst
from combinf.connectivity import ConnectivityMatrix
from combinf.errors import ValidationError


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
    return mst.WeightedGraph(labels, tuple((i, j, w) for (i, j), w in edges.items()))


def exhaustive_min_tree(g):
    """Minimum spanning tree by trying every (p-1)-edge subset; returns the
    sorted weight tuple of the best tree."""
    p = g.p
    best = None
    best_weights = None
    for subset in combinations(g.edges, p - 1):
        uf = mst.UnionFind(p)
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
            mst.WeightedGraph(("a", "b"), ((0, 0, 1.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValidationError):
            mst.WeightedGraph(("a", "b"), ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            mst.WeightedGraph(("a", "b"), ((0, 2, 1.0),))


class TestKruskal:
    def test_triangle(self):
        g = mst.WeightedGraph(("a", "b", "c"),
                              ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)))
        forest = mst.kruskal_mst(g)
        assert forest.tree_edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert forest.component_count == 1

    def test_path_graph_is_its_own_tree(self):
        g = mst.WeightedGraph(tuple("abcd"),
                              ((0, 1, 2.0), (1, 2, 1.0), (2, 3, 5.0)))
        forest = mst.kruskal_mst(g)
        assert set(forest.tree_edges) == set(g.edges)

    def test_single_node_rejected(self):
        with pytest.raises(ValidationError):
            mst.kruskal_mst(mst.WeightedGraph(("a",), ()))

    def test_insertion_order_nondecreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            forest = mst.kruskal_mst(random_connected_graph(rng, int(rng.integers(2, 9))))
            ws = [w for _, _, w in forest.tree_edges]
            assert ws == sorted(ws)

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = int(rng.integers(3, 7))
            g = random_connected_graph(rng, p)
            forest = mst.kruskal_mst(g)
            assert forest.component_count == 1
            assert len(forest.tree_edges) == p - 1
            total = sum(w for _, _, w in forest.tree_edges)
            assert total == pytest.approx(exhaustive_min_tree_weight(g), rel=1e-12)

    def test_edge_plus_component_count(self):
        g = mst.WeightedGraph(tuple("abcde"), ((0, 1, 1.0), (2, 3, 1.0)))
        forest = mst.kruskal_mst(g)
        assert len(forest.tree_edges) + forest.component_count == 5


class TestFromConnectivity:
    def test_uniform_similarity(self):
        p = 5
        values = np.full((p, p), 0.5)
        np.fill_diagonal(values, 1.0)
        cm = ConnectivityMatrix(tuple("abcde"), values)
        _, weights = mst.mst_from_connectivity(cm, "one_minus_similarity")
        assert all(w == 0.5 for w in weights.values)

    def test_max_tree_matches_one_minus(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = int(rng.integers(3, 10))
            s = rng.uniform(-0.9, 0.9, (p, p))
            s = (s + s.T) / 2
            np.fill_diagonal(s, 1.0)
            cm = ConnectivityMatrix(tuple(f"n{k}" for k in range(p)), s)
            f1, _ = mst.mst_from_connectivity(cm, mst.WeightMode.ONE_MINUS_SIMILARITY)
            f2, _ = mst.mst_from_connectivity(cm, mst.WeightMode.MAX_TREE)
            e1 = {(i, j) for i, j, _ in f1.tree_edges}
            e2 = {(i, j) for i, j, _ in f2.tree_edges}
            assert e1 == e2

    def test_distance_mode_skips_zeros(self):
        values = np.array([[0.0, 2.0, 0.0],
                           [2.0, 0.0, 3.0],
                           [0.0, 3.0, 0.0]])
        cm = ConnectivityMatrix(("a", "b", "c"), values)
        forest, _ = mst.mst_from_connectivity(cm, "distance")
        assert {(i, j) for i, j, _ in forest.tree_edges} == {(0, 1), (1, 2)}

    def test_asymmetric_rejected(self):
        values = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0,1\)|\(1,0\)"):
            mst.mst_from_connectivity(values, "distance")

    def test_nonfinite_rejected(self):
        values = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError):
            mst.mst_from_connectivity(values, "distance")


class TestCompare:
    def test_identical(self):
        w = exact.MonotoneSequence((0.1, 0.2, 0.7))
        with pytest.warns(exact.TieWarning):
            cmp = mst.compare_msts(w, w)
        assert cmp.d == 0
        assert cmp.p_value.real_value == 1.0
        assert cmp.ties_absorbed

    def test_disjoint_supports(self):
        wa = exact.MonotoneSequence((0.1, 0.2, 0.3))
        wb = exact.MonotoneSequence((0.4, 0.5, 0.6))
        cmp = mst.compare_msts(wa, wb)
        assert cmp.d == 3
        assert cmp.p_value.real_value == pytest.approx(0.1)

    def test_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = int(rng.integers(1, 20))
            wa = exact.MonotoneSequence(tuple(np.sort(rng.standard_normal(q))))
            wb = exact.MonotoneSequence(tuple(np.sort(rng.standard_normal(q))))
            ab = mst.compare_msts(wa, wb)
            ba = mst.compare_msts(wb, wa)
            assert ab.d == ba.d
            assert ab.p_value == ba.p_value

    def test_length_mismatch(self):
        wa = exact.MonotoneSequence((0.1,))
        wb = exact.MonotoneSequence((0.1, 0.2))
        with pytest.raises(ValidationError):
            mst.compare_msts(wa, wb)


class TestLocalize:
    def _forests(self):
        labels = tuple("abcd")
        fa = mst.SpanningForest(labels, ((0, 1, 0.2), (1, 2, 0.5), (2, 3, 0.9)), 1)
        fb = mst.SpanningForest(labels, ((0, 2, 0.4), (1, 3, 0.5), (0, 3, 0.7)), 1)
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

    def test_negative_radius_rejected(self):
        fa, fb = self._forests()
        with pytest.raises(ValidationError):
            mst.localize_nodes(fa, fb, 0.5, -0.1)


class TestGrowthCurve:
    def test_points(self):
        w = exact.MonotoneSequence((0.1, 0.4, 0.9))
        assert mst.growth_curve(w) == [(0.1, 1), (0.4, 2), (0.9, 3)]

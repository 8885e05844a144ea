"""Minimum (and maximum) spanning trees from connectivity matrices, built
with Kruskal's algorithm, plus comparison of two trees through the exact
discrepancy test."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import exact
from ._kernels import mst_tree_indices
from .errors import ValidationError


class WeightMode(str, Enum):
    """How connectivity entries become Kruskal edge weights."""

    DISTANCE = "distance"
    ONE_MINUS_SIMILARITY = "one_minus_similarity"
    MAX_TREE = "max_tree"


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph as an edge list over labeled nodes."""

    node_labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        p = len(self.node_labels)
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise ValidationError(f"self-loop at node {i}")
            if not (0 <= i < p and 0 <= j < p):
                raise ValidationError(f"edge ({i},{j}) out of range for p={p}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)

    @property
    def p(self) -> int:
        return len(self.node_labels)


@dataclass(frozen=True)
class SpanningForest:
    """Kruskal output: tree edges in insertion order plus component count."""

    node_labels: tuple[str, ...]
    tree_edges: tuple[tuple[int, int, float], ...]
    component_count: int

    @property
    def p(self) -> int:
        return len(self.node_labels)

    def sorted_weights(self) -> exact.MonotoneSequence:
        """The tree edge weights w_1 <= ... <= w_{p-1}, tie-tolerant: real
        correlation data can tie, and the discrepancy statistic absorbs ties
        (flagging the result)."""
        return exact.MonotoneSequence(
            tuple(sorted(w for _, _, w in self.tree_edges)), strict=False)


@dataclass(frozen=True)
class MstComparison:
    """Result of comparing two spanning trees' sorted weight sequences."""

    d: int
    argmax_weight: float
    p_value: exact.ExactPValue
    q: int
    ties_absorbed: bool = False


class UnionFind:
    """Disjoint-set forest with path halving and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


def kruskal_mst(g: WeightedGraph) -> SpanningForest:
    """Greedy minimum spanning forest: scan edges by ascending weight, skip
    those closing a cycle. Weight ties break by (min endpoint, max endpoint)
    for reproducibility."""
    if g.p < 2:
        raise ValidationError(f"graph needs at least 2 nodes, got {g.p}")
    ordered = sorted(g.edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1])))
    uf = UnionFind(g.p)
    tree = []
    for i, j, w in ordered:
        if uf.union(i, j):
            tree.append((i, j, float(w)))
            if uf.components == 1:
                break
    return SpanningForest(node_labels=g.node_labels, tree_edges=tuple(tree),
                          component_count=uf.components)


def _validate_square_symmetric(values: np.ndarray, tol: float = 1e-9) -> None:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {values.shape}")
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"non-finite entry at ({i},{j})")
    asym = np.abs(values - values.T)
    bad = np.argwhere(asym > tol)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"matrix not symmetric at ({i},{j}): {values[i, j]!r} vs {values[j, i]!r}"
        )


def mst_from_connectivity(conn, mode: WeightMode | str = WeightMode.DISTANCE,
                          ) -> tuple[SpanningForest, exact.MonotoneSequence]:
    """Build the spanning tree of a connectivity matrix.

    distance: entries are edge weights directly (exact zeros = absent edges).
    one_minus_similarity: weight = 1 - entry, all off-diagonal pairs.
    max_tree: maximum spanning tree of the similarities (Kruskal on negated
    entries); reported weights are the original similarities.
    """
    mode = WeightMode(mode)
    values = np.asarray(conn.values if hasattr(conn, "values") else conn,
                        dtype=np.float64)
    labels = tuple(conn.labels) if hasattr(conn, "labels") else tuple(
        f"V{k + 1}" for k in range(values.shape[0]))
    _validate_square_symmetric(values)
    p = values.shape[0]
    if p < 2:
        raise ValidationError(f"connectivity matrix needs p >= 2, got p={p}")
    iu, ju = np.triu_indices(p, k=1)
    s = values[iu, ju]
    if mode is WeightMode.DISTANCE:
        keep = s != 0.0
        iu, ju, w = iu[keep], ju[keep], s[keep]
        report = w
    elif mode is WeightMode.ONE_MINUS_SIMILARITY:
        w = 1.0 - s
        report = w
    else:
        w = -s
        report = s
    tree_idx = mst_tree_indices(iu.astype(np.int64), ju.astype(np.int64),
                                np.ascontiguousarray(w), p)
    edges = [(int(iu[t]), int(ju[t]), float(report[t])) for t in tree_idx]
    if mode is WeightMode.MAX_TREE:
        # insertion order was by descending similarity; normalize to the
        # nondecreasing-weight convention of SpanningForest
        edges.sort(key=lambda e: (e[2], e[0], e[1]))
    components = p - len(edges)
    forest = SpanningForest(node_labels=labels, tree_edges=tuple(edges),
                            component_count=components)
    return forest, forest.sorted_weights()


def compare_msts(weights_a: exact.MonotoneSequence,
                 weights_b: exact.MonotoneSequence) -> MstComparison:
    """Exact test of equality of two trees' sorted weight sequences."""
    res = exact.discrepancy(weights_a, weights_b)
    pv = exact.exact_pvalue(res.q, res.d)
    return MstComparison(d=res.d, argmax_weight=res.argmax_location, p_value=pv,
                         q=res.q, ties_absorbed=res.ties_absorbed)


def localize_nodes(mst_a: SpanningForest, mst_b: SpanningForest,
                   center_weight: float, radius: float) -> list[str]:
    """Labels of nodes touched by edges (in either tree) whose weight lies in
    [center - radius, center + radius]; sorted and deduplicated."""
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    lo, hi = center_weight - radius, center_weight + radius
    out = set()
    for forest in (mst_a, mst_b):
        for i, j, w in forest.tree_edges:
            if lo <= w <= hi:
                out.add(forest.node_labels[i])
                out.add(forest.node_labels[j])
    return sorted(out)


def growth_curve(w: exact.MonotoneSequence) -> list[tuple[float, int]]:
    """Step-function plot points (w_j, j): edges added by each weight."""
    return [(float(v), j + 1) for j, v in enumerate(w.values)]

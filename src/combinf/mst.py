"""Minimum (and maximum) spanning trees from connectivity matrices, built by
the null's dense Prim keyed by Kruskal's edge order (``kruskal_mst`` is the
edge-list reference), plus comparison of two trees through the exact
discrepancy test."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import exact
from ._kernels import prim_sorted_keys
from .connectivity import ConnectivityMatrix, _default_labels
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


def mst_from_connectivity(conn, mode: WeightMode | str = WeightMode.DISTANCE,
                          ) -> SpanningForest:
    """Kruskal's spanning forest of a connectivity matrix.

    distance: entries are edge weights directly (exact zeros = absent edges).
    one_minus_similarity: weight = 1 - entry, all off-diagonal pairs.
    max_tree: maximum spanning tree of the similarities (Kruskal on negated
    entries); reported weights are the original similarities.

    Prim keyed by each edge's rank in a stable sort of the upper triangle,
    all distinct, takes Kruskal's tree with ties broken by (i, j); absent
    edges get key E, above every rank, and are dropped. Other input is
    wrapped in a ConnectivityMatrix (labels V1..Vp for a bare array).
    """
    mode = WeightMode(mode)
    if not isinstance(conn, ConnectivityMatrix):
        values = np.asarray(getattr(conn, "values", conn), dtype=np.float64)
        labels = getattr(conn, "labels", None) or _default_labels(len(values))
        conn = ConnectivityMatrix(labels, values)
    p = conn.p
    if p < 2:
        raise ValidationError(f"connectivity matrix needs p >= 2, got p={p}")
    iu, ju = np.triu_indices(p, k=1)
    s = conn.values[iu, ju]
    edge = np.arange(s.size)
    if mode is WeightMode.DISTANCE:
        edge = edge[s != 0.0]
        w = report = s
    elif mode is WeightMode.ONE_MINUS_SIMILARITY:
        w = report = 1.0 - s
    else:
        w, report = -s, s
    order = edge[np.argsort(w[edge], kind="stable")]
    E = s.size
    rank = np.full(E, float(E))
    rank[order] = np.arange(order.size)
    keys = np.empty((1, p, p))
    keys[0, iu, ju] = keys[0, ju, iu] = rank
    taken = prim_sorted_keys(keys)[0]
    tree = order[taken[taken < E].astype(np.int64)]
    edges = [(int(iu[t]), int(ju[t]), float(report[t])) for t in tree]
    if mode is WeightMode.MAX_TREE:
        # insertion order was by descending similarity; normalize to the
        # nondecreasing-weight convention of SpanningForest
        edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return SpanningForest(node_labels=conn.labels, tree_edges=tuple(edges),
                          component_count=p - len(edges))


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

"""Edge-list Kruskal: the reference that ``mst.mst_from_connectivity`` is
tested against."""

from dataclasses import dataclass

import numpy as np

from combinf.errors import ValidationError
from combinf.mst import SpanningForest, WeightMode


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
    """Greedy minimum spanning forest, its edges in insertion order."""
    return _forest(g.node_labels, kruskal_tree(g))


def kruskal_tree(g: WeightedGraph) -> list[tuple[int, int, float]]:
    """Greedy minimum spanning forest as (i, j, w) edges in insertion order:
    scan edges by ascending weight, skip those closing a cycle. Weight ties
    break by (min endpoint, max endpoint) for reproducibility."""
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
    return tree


def kruskal_of_matrix(s, mode) -> SpanningForest:
    """The forest ``mst_from_connectivity(s, mode)`` must return, by Kruskal
    on the edge list its weight mode describes: same tree edges in the same
    order, same component count."""
    p = len(s)
    labels = tuple(f"V{k + 1}" for k in range(p))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    mode = WeightMode(mode)
    if mode is WeightMode.DISTANCE:
        edges = [(i, j, s[i][j]) for i, j in pairs if s[i][j] != 0.0]
    elif mode is WeightMode.ONE_MINUS_SIMILARITY:
        edges = [(i, j, 1.0 - s[i][j]) for i, j in pairs]
    else:
        edges = [(i, j, -s[i][j]) for i, j in pairs]
    tree = kruskal_tree(WeightedGraph(labels, tuple(edges)))
    if mode is WeightMode.MAX_TREE:
        # reported as similarities, re-sorted nondecreasing
        tree = sorted(((i, j, -w) for i, j, w in tree),
                      key=lambda e: (e[2], e[0], e[1]))
    return _forest(labels, tree)


def _forest(labels, tree) -> SpanningForest:
    """The SpanningForest of a list of (i, j, w) tree edges, in list order."""
    return SpanningForest(
        node_labels=labels,
        edges=np.array([(i, j) for i, j, _ in tree], dtype=np.int64).reshape(-1, 2),
        weights=np.array([w for _, _, w in tree], dtype=np.float64))


def in_weight_order(forest) -> bool:
    """Whether the forest's rows are ordered by (weight, i, j)."""
    keys = list(zip(forest.weights.tolist(), *forest.edges.T.tolist()))
    return keys == sorted(keys)

"""Edge-list Kruskal: the reference that ``mst.mst_from_connectivity`` is
tested against."""

from dataclasses import dataclass

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
    forest = kruskal_mst(WeightedGraph(labels, tuple(edges)))
    if mode is WeightMode.MAX_TREE:
        # reported as similarities, re-sorted nondecreasing
        tree = sorted(((i, j, -w) for i, j, w in forest.tree_edges),
                      key=lambda e: (e[2], e[0], e[1]))
        forest = SpanningForest(labels, tuple(tree), forest.component_count)
    return forest

"""Minimum (and maximum) spanning trees from connectivity matrices, plus
comparison of two trees' weight arrays through the exact discrepancy test.

A tree is built by the permutation null's dense Prim (``prim_keys``), which
reads a key matrix and leaves it as it is, keyed by Kruskal's edge order:
each edge's rank in the order (weight, i, j), so the tree is Kruskal's with
ties broken by (i, j). When no two weights compare equal, the order is that
of the weights alone, and numpy's default (unstable) sort finds it; when two
do (-0.0 and 0.0 among them), a stable sort of the edges, listed by (i, j),
does. It is held as edge and weight arrays sorted by weight."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np

from . import exact
from ._kernels import WeightMode, prim_keys
from .connectivity import ConnectivityMatrix, _default_labels
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class SpanningForest:
    """Spanning forest: its k tree edges as a (k, 2) int array of node index
    pairs i < j and a (k,) float array of their weights, rows ordered by
    (weight, i, j), so the weights are nondecreasing. Real correlation data
    can tie; the discrepancy statistic absorbs ties (flagging the result)."""

    node_labels: tuple[str, ...]
    edges: np.ndarray
    weights: np.ndarray

    @property
    def component_count(self) -> int:
        return len(self.node_labels) - len(self.weights)


def mst_from_connectivity(conn, mode: WeightMode | str = WeightMode.DISTANCE,
                          ) -> SpanningForest:
    """Kruskal's spanning forest of a connectivity matrix, its entries
    weighted as the WeightMode ``mode`` says. In DISTANCE mode an entry of
    exactly 0 is an absent edge, so the graph may give a forest; MAX_TREE
    runs Kruskal on the negated entries and reports the entries.

    Prim keyed by each edge's rank in the order (weight, i, j) of the
    upper triangle, all distinct, takes Kruskal's tree with ties broken by
    (i, j); absent edges get key E, above every rank, and are dropped. The
    order is the default sort's when no two weights compare equal, there
    being one ascending order; else the stable sort's. Other input is
    wrapped in a ConnectivityMatrix labelled V1..Vp.
    """
    mode = WeightMode(mode)
    if not isinstance(conn, ConnectivityMatrix):
        values = np.asarray(conn, dtype=np.float64)
        conn = ConnectivityMatrix(_default_labels(len(values)), values)
    p = conn.p
    upper = ~np.tri(p, dtype=bool)  # row-major, as np.triu_indices lists it
    iu, ju = np.nonzero(upper)
    s = conn.values[upper]
    edge = np.arange(s.size)
    if mode is WeightMode.DISTANCE:
        edge = edge[s != 0.0]
        w = report = s
    elif mode is WeightMode.ONE_MINUS_SIMILARITY:
        w = report = 1.0 - s
    else:
        w, report = -s, s
    w = w[edge]
    order = np.argsort(w)
    ranked = w[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(w, kind="stable")  # ties in (i, j) order
    order = edge[order]
    E = s.size
    rank = np.full(E, float(E))
    rank[order] = np.arange(order.size)
    keys = np.zeros((1, p, p))  # prim_keys reads the diagonal too
    keys[0][upper] = keys[0].T[upper] = rank
    taken = prim_keys(keys)[0]
    tree = order[taken[taken < E].astype(np.int64)]
    tree = tree[np.lexsort((tree, report[tree]))]  # by (weight, i, j)
    return SpanningForest(node_labels=conn.labels,
                          edges=np.stack([iu[tree], ju[tree]], axis=1),
                          weights=report[tree])


def compare_msts(weights_a, weights_b) -> tuple[exact.DiscrepancyResult, Fraction]:
    """Exact test of equality of two trees' weight arrays, of equal length
    and in any order: their discrepancy and its exact p-value
    P(D_q >= d)."""
    res = exact.discrepancy(weights_a, weights_b)
    return res, exact.exact_pvalue(res.q, res.d)


def localize_nodes(mst_a: SpanningForest, mst_b: SpanningForest,
                   center_weight: float, radius: float) -> list[str]:
    """Labels of nodes touched by edges (in either tree) whose weight lies in
    [center - radius, center + radius]; sorted and deduplicated."""
    if not np.isfinite(center_weight):
        raise ValidationError(f"center must be finite, got {center_weight}")
    if not radius >= 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    lo, hi = center_weight - radius, center_weight + radius
    out = set()
    for forest in (mst_a, mst_b):
        near = (lo <= forest.weights) & (forest.weights <= hi)
        out.update(forest.node_labels[k] for k in np.unique(forest.edges[near]))
    return sorted(out)


def growth_curve(weights) -> list[tuple[float, int]]:
    """Step-function plot points (w_j, j): edges added by each weight."""
    return [(w, j + 1) for j, w in enumerate(np.asarray(weights).tolist())]

"""Minimum (and maximum) spanning trees from connectivity matrices, built by
the null's dense Prim keyed by Kruskal's edge order and held as edge and
weight arrays sorted by weight, plus comparison of two trees' weight arrays
through the exact discrepancy test."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import exact
from ._kernels import prim_sorted_keys
from .connectivity import ConnectivityMatrix, _default_labels
from .errors import ValidationError


class WeightMode(str, Enum):
    """How connectivity entries become spanning-tree edge weights."""

    DISTANCE = "distance"
    ONE_MINUS_SIMILARITY = "one_minus_similarity"
    MAX_TREE = "max_tree"


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
    """Kruskal's spanning forest of a connectivity matrix.

    distance: entries are edge weights directly (exact zeros = absent edges).
    one_minus_similarity: weight = 1 - entry, all off-diagonal pairs.
    max_tree: maximum spanning tree of the similarities (Kruskal on negated
    entries); reported weights are the original similarities.

    Prim keyed by each edge's rank in a stable sort of the upper triangle,
    all distinct, takes Kruskal's tree with ties broken by (i, j); absent
    edges get key E, above every rank, and are dropped. Other input is
    wrapped in a ConnectivityMatrix labelled V1..Vp.
    """
    mode = WeightMode(mode)
    if not isinstance(conn, ConnectivityMatrix):
        values = np.asarray(conn, dtype=np.float64)
        conn = ConnectivityMatrix(_default_labels(len(values)), values)
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
    # Kruskal's insertion order is already (weight, i, j) except in max_tree
    # mode, which inserts by descending similarity; edge ids follow (i, j).
    tree = tree[np.lexsort((tree, report[tree]))]
    return SpanningForest(node_labels=conn.labels,
                          edges=np.stack([iu[tree], ju[tree]], axis=1),
                          weights=report[tree])


def compare_msts(weights_a, weights_b) -> tuple[exact.DiscrepancyResult, Fraction]:
    """Exact test of equality of two trees' sorted weight arrays: their
    discrepancy and its exact p-value P(D_q >= d)."""
    res = exact.discrepancy(weights_a, weights_b)
    return res, exact.exact_pvalue(res.q, res.d)


def localize_nodes(mst_a: SpanningForest, mst_b: SpanningForest,
                   center_weight: float, radius: float) -> list[str]:
    """Labels of nodes touched by edges (in either tree) whose weight lies in
    [center - radius, center + radius]; sorted and deduplicated."""
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

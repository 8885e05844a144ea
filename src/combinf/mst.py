"""Minimum (and maximum) spanning trees from connectivity matrices, built by
the null's dense Prim keyed by Kruskal's edge order, plus comparison of two
trees through the exact discrepancy test."""

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


@dataclass(frozen=True)
class SpanningForest:
    """Spanning forest: tree edges in Kruskal's insertion order plus the
    component count."""

    node_labels: tuple[str, ...]
    tree_edges: tuple[tuple[int, int, float], ...]
    component_count: int

    def sorted_weights(self) -> exact.MonotoneSequence:
        """The tree edge weights w_1 <= ... <= w_{p-1}; real correlation
        data can tie, and the discrepancy statistic absorbs ties (flagging
        the result)."""
        return exact.MonotoneSequence(
            tuple(sorted(w for _, _, w in self.tree_edges)))


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
    edges = [(int(iu[t]), int(ju[t]), float(report[t])) for t in tree]
    if mode is WeightMode.MAX_TREE:
        # insertion order was by descending similarity; normalize to the
        # nondecreasing-weight convention of SpanningForest
        edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return SpanningForest(node_labels=conn.labels, tree_edges=tuple(edges),
                          component_count=p - len(edges))


def compare_msts(weights_a: exact.MonotoneSequence,
                 weights_b: exact.MonotoneSequence,
                 ) -> tuple[exact.DiscrepancyResult, Fraction]:
    """Exact test of equality of two trees' sorted weight sequences: their
    discrepancy and its exact p-value P(D_q >= d)."""
    res = exact.discrepancy(weights_a, weights_b)
    return res, exact.exact_pvalue(res.q, res.d)


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

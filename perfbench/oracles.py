"""Independent computations that the benchmark checks combinf's answers
against. Nothing here imports combinf: each quantity is computed by another
route (scipy's spanning tree, scipy's two-sample KS test, the
Gnedenko-Korolyuk closed form, a columnwise rank correlation)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.stats import ks_2samp, rankdata

KS_REL_TOL = 1e-12


def mst_edges(weights: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the edges of a minimum spanning tree of the
    graph whose edges are the upper-triangle entries of ``weights`` where
    ``present`` holds.

    scipy reads a dense zero as "no edge", so present zero-weight edges get
    the smallest positive double for the tree search.
    """
    upper = np.triu(present, 1)
    dense = np.where(upper, weights, 0.0)
    dense[upper & (weights == 0.0)] = np.nextafter(0.0, 1.0)
    tree = minimum_spanning_tree(dense).tocoo()
    return tree.row, tree.col


def mst_sorted_weights(weights: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Sorted tree edge weights, read back from ``weights``. Every minimum
    spanning tree of a graph has the same weight multiset, so the result does
    not depend on how ties are broken."""
    rows, cols = mst_edges(weights, present)
    return np.sort(weights[rows, cols])


def discrepancy(wa: np.ndarray, wb: np.ndarray) -> int:
    """D_q = q times the two-sample KS statistic of two length-q samples."""
    q = len(wa)
    return round(ks_2samp(wa, wb).statistic * q)


def argmax_weight(wa: np.ndarray, wb: np.ndarray) -> float:
    """Smallest merged value at which the two empirical counts differ most."""
    merged = np.unique(np.concatenate([wa, wb]))
    gap = np.abs(np.searchsorted(wa, merged, side="right")
                 - np.searchsorted(wb, merged, side="right"))
    return float(merged[int(np.argmax(gap))])


def has_cross_ties(wa: np.ndarray, wb: np.ndarray) -> bool:
    """True when some value occurs in both sequences."""
    return bool(np.intersect1d(wa, wb).size)


def closed_form_pvalue(q: int, d: int) -> Fraction:
    """P(D_q >= d) = 2 sum_{k>=1} (-1)^(k+1) C(2q, q-kd) / C(2q, q)
    (Gnedenko and Korolyuk 1951), exactly."""
    if d <= 0:
        return Fraction(1)
    if d > q:
        return Fraction(0)
    total = sum((-1) ** (k + 1) * math.comb(2 * q, q - k * d)
                for k in range(1, q // d + 1))
    return Fraction(2 * total, math.comb(2 * q, q))


def ks_exact_pvalue(q: int, d: int) -> float:
    """scipy's exact two-sided KS p-value for two samples of size q whose
    statistic is d/q."""
    x = np.arange(q, dtype=np.float64)
    res = ks_2samp(x, x + (d - 0.5), method="exact")
    if round(res.statistic * q) != d:
        raise ArithmeticError(f"ks_2samp statistic {res.statistic} is not {d}/{q}")
    return float(res.pvalue)


def twin_spearman(a_edges: np.ndarray, b_edges: np.ndarray) -> np.ndarray:
    """Spearman correlation per column of two (pairs x edges) arrays: one
    columnwise midrank transform and one columnwise Pearson."""
    ra = rankdata(a_edges, axis=0)
    rb = rankdata(b_edges, axis=0)
    ra -= ra.mean(axis=0)
    rb -= rb.mean(axis=0)
    return (ra * rb).sum(axis=0) / np.sqrt((ra * ra).sum(axis=0)
                                           * (rb * rb).sum(axis=0))


def pvalue_problems(label: str, q: int, d: int, fraction: Fraction | None,
                    real: float, shown: str | None = None) -> list[str]:
    """Compare a reported P(D_q >= d) with the closed form (exactly, when the
    exact fraction is reported) and with scipy's exact KS p-value."""
    expect = closed_form_pvalue(q, d)
    out = []
    if fraction is not None and fraction != expect:
        out.append(f"{label}: exact p-value {fraction} != closed form {expect}")
    if real != float(expect):
        out.append(f"{label}: p-value {real!r} != closed form {float(expect)!r}")
    if shown is not None and shown != f"{float(expect):.6g}":
        out.append(f"{label}: printed p-value {shown} != {float(expect):.6g}")
    if 0 < d <= q:
        ks = ks_exact_pvalue(q, d)
        if not math.isclose(real, ks, rel_tol=KS_REL_TOL, abs_tol=0.0):
            out.append(f"{label}: p-value {real!r} differs from ks_2samp exact "
                       f"{ks!r} by more than {KS_REL_TOL:g} relative")
    return out

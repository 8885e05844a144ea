"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them even on success)."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import ks_2samp

import combinf as c
from combinf import cli, mst
from exact_reference import (band_pvalue, brute_force_pvalue, count_band_paths,
                             term_sum_pvalue)
from kruskal_reference import WeightedGraph, in_weight_order, kruskal_mst

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}{': ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_worked_example_exact():
    t0 = time.perf_counter()
    pv = c.exact_pvalue(3, 2)
    corner = count_band_paths(3, 2)
    elapsed = time.perf_counter() - t0
    ok = (pv.numerator, pv.denominator) == (3, 5) and float(pv) == 0.6 and corner == 8
    report("criterion 1: worked example exactness", ok,
           f"p=3/5={float(pv)}, A33={corner}, {elapsed * 1e3:.2f} ms")


def test_criterion_2_twin_pvalue():
    q, d = 115, 46
    t0 = time.perf_counter()
    pv = c.exact_pvalue(q, d)
    elapsed = time.perf_counter() - t0

    # Oracle 1: Gnedenko-Korolyuk closed form, exact in integers.
    closed_form = term_sum_pvalue(q, d)
    # Oracle 2: D_q is q times the two-sample KS statistic, so scipy's exact
    # KS test on samples whose largest CDF gap is d must give the same tail.
    x = np.arange(float(q))
    ks = ks_2samp(x, x + d - 0.5, method="exact")
    assert ks.statistic == d / q
    # Oracle 3: the band DP, 1 - (paths inside |u - v| < d) / C(2q, q).
    band = band_pvalue(q, d)

    ok = (pv == closed_form == band
          and math.isclose(float(pv), ks.pvalue, rel_tol=1e-12)
          and elapsed < 0.1)
    report("criterion 2: exact twin p-value at q=115, d=46", ok,
           f"exact_pvalue(115,46)={float(pv):.6g}, closed form "
           f"{float(closed_form):.6g}, band DP {float(band):.6g}, "
           f"ks_2samp {ks.pvalue:.6g}, "
           f"{elapsed * 1e3:.1f} ms (the published 1.57e-8 is the q=116 "
           "value, see CHANGES.md)")


def test_criterion_2_companion_published_value_is_q_116():
    # Documents the resolution of criterion 2: the published figure matches
    # the q=116 band count, not q=115.
    pv = c.exact_pvalue(116, 46)
    report("criterion 2 companion: q=116 reproduces the published 1.57e-8",
           1.55e-8 <= float(pv) <= 1.60e-8, f"{float(pv):.6g}")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = [(q, d) for q in range(1, 9) for d in range(0, q + 2)
                  if c.exact_pvalue(q, d) != brute_force_pvalue(q, d)]
    elapsed = time.perf_counter() - t0
    report("criterion 3: exact p-value equals brute-force oracle (q<=8)",
           not mismatches and elapsed < 30,
           f"mismatched (q, d): {mismatches}, {elapsed:.1f} s")


def test_criterion_4_boundary_laws_and_monotonicity():
    ok = all(c.exact_pvalue(q, 1) == 1
             and c.exact_pvalue(q, q + 1) == 0
             for q in range(1, 201))
    mono = True
    for q in (10, 115):
        prev = Fraction(2)
        for d in range(0, q + 2):
            cur = c.exact_pvalue(q, d)
            mono &= cur <= prev
            prev = cur
    report("criterion 4: boundary laws q<=200 and monotonicity in d", ok and mono)


def test_criterion_5_mst_exhaustive_minimality():
    from test_mst import exhaustive_min_tree, random_connected_graph
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        p = int(rng.integers(3, 7))
        g = random_connected_graph(rng, p)
        w = np.zeros((p, p))
        for i, j, x in g.edges:
            w[i, j] = w[j, i] = x
        # Weights lie in [0.1, 10]. An absent edge is a zero distance, or a
        # similarity of -20: weight 21 in one_minus mode, the least similar
        # in max_tree mode, so no minimal tree of the connected graph uses it.
        one_minus = np.where(w != 0, 1.0 - w, -20.0)
        g_one_minus = WeightedGraph(g.node_labels, tuple(
            (i, j, 1.0 - one_minus[i, j]) for i, j, _ in g.edges))
        best = exhaustive_min_tree(g)
        cases = [
            (w, mst.WeightMode.DISTANCE, best),
            (one_minus, mst.WeightMode.ONE_MINUS_SIMILARITY,
             exhaustive_min_tree(g_one_minus)),
            # the maximum tree of -w is the minimum tree of w
            (np.where(w != 0, -w, -20.0), mst.WeightMode.MAX_TREE,
             tuple(sorted(-x for x in best))),
        ]
        for values, mode, expected in cases:
            got = mst.mst_from_connectivity(values, mode)
            mismatches += not (np.array_equal(got.weights, expected)
                               and in_weight_order(got))
    report("criterion 5: mst_from_connectivity minimal on 200 exhaustive "
           "checks in each weight mode (p<=6)",
           mismatches == 0, f"{mismatches} mismatching trees")


def test_criterion_6_table1_qualitative_and_criterion_8_determinism(tmp_path):
    cfg = {
        "seed": 20180527, "n": 10, "p": 40, "sigma": 0.1, "replications": 25,
        "permutation_fractions": [0.01], "pairings": [[0, 0], [4, 5]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    t0 = time.perf_counter()
    # The second run, for criterion 8, is a child process alongside the first.
    src = os.path.dirname(os.path.dirname(c.__file__))
    child = subprocess.Popen(
        [sys.executable, "-m", "combinf.cli", "simulate", "--config",
         str(cfg_path), "--out", str(out2)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    try:
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        _, child_err = child.communicate(timeout=600)
    finally:
        child.kill()  # no-op once it has exited
    assert child.returncode == 0, child_err
    elapsed = time.perf_counter() - t0

    doc = json.loads((out1 / "report.json").read_text())
    comb_45 = doc["results"]["4 vs 5"]["combinatorial"]["mean"]
    comb_00 = doc["results"]["0 vs 0"]["combinatorial"]["mean"]
    perm_45 = doc["results"]["4 vs 5"]["permute_1%"]["mean"]
    ok6 = comb_45 < 0.15 and comb_00 > 0.5 and perm_45 > 0.25
    report("criterion 6: desk-scale Table-1 replication", ok6,
           f"comb(4v5)={comb_45:.3f}<0.15, comb(0v0)={comb_00:.3f}>0.5, "
           f"perm1%(4v5)={perm_45:.3f}>0.25, {elapsed:.0f} s")

    identical = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report("criterion 8: byte-identical reports for identical configs", identical)


@pytest.mark.parametrize("mode", ["correlation", "one_minus"])
def test_criterion_8_report_matches_committed_bytes(mode, tmp_path):
    # Reports committed with their configs under tests/golden: criterion 8
    # across versions of the code, not only across runs of one version.
    # Each config lists every split (permute_100%) and draws 5 %, at p = 40.
    config = os.path.join(GOLDEN, f"simulate_{mode}.json")
    assert cli.main(["simulate", "--config", config,
                     "--out", str(tmp_path)]) == 0
    with open(os.path.join(GOLDEN, f"simulate_{mode}.report.json"), "rb") as fh:
        want = fh.read()
    same = (tmp_path / "report.json").read_bytes() == want
    report(f"criterion 8: {mode} report matches the committed bytes", same)


def test_criterion_7_sigma_zero_degeneracy():
    t0 = time.perf_counter()
    data = c.simulate_modular_data(10, 40, 4, 0.0, c.RngStream(1, 0))
    corr = c.pearson_correlation_matrix(data).values
    worst = 0.0
    for j in range(4):
        block = corr[10 * j:10 * (j + 1), 10 * j:10 * (j + 1)]
        worst = max(worst, np.abs(block - 1.0).max())
    elapsed = time.perf_counter() - t0
    report("criterion 7: sigma=0 within-module correlations equal 1",
           worst <= 1e-12 and elapsed < 1.0, f"max dev={worst:.2e}")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(99)
    failures = 0

    # discrepancy symmetry + strict-monotone transform invariance
    maps = [lambda x: 2 * x + 1, np.exp, np.arctan, lambda x: x ** 3]
    for _ in range(1000):
        q = int(rng.integers(1, 12))
        a = np.sort(rng.standard_normal(q))
        b = np.sort(rng.standard_normal(q))
        d = c.discrepancy(a, b).d
        if c.discrepancy(b, a).d != d:
            failures += 1
        f = maps[rng.integers(len(maps))]
        if c.discrepancy(f(a), f(b)).d != d:
            failures += 1

    # localize_nodes radius monotonicity
    labels = tuple(f"n{k}" for k in range(6))
    we = tuple((int(i), int(j), float(rng.uniform(0, 1)))
               for i, j in combinations(range(6), 2))
    fa = kruskal_mst(WeightedGraph(labels, we[:10]))
    fb = kruskal_mst(WeightedGraph(labels, we[5:]))
    for _ in range(1000):
        center = float(rng.uniform(0, 1))
        r1, r2 = sorted(rng.uniform(0, 1, 2))
        if not (set(mst.localize_nodes(fa, fb, center, r1))
                <= set(mst.localize_nodes(fa, fb, center, r2))):
            failures += 1

    # twin map (edgewise Spearman) rank-transform invariance: 100 cohorts
    # of 10 edges, each edge a case with its own map
    iu = np.triu_indices(5, k=1)

    def twin_map(a, b):
        def matrix(upper):
            values = np.eye(5)
            values[iu] = values.T[iu] = upper
            return c.ConnectivityMatrix(tuple("vwxyz"), values)
        return c.twin_edgewise_correlation(c.TwinCohort(tuple(
            (matrix(x), matrix(y)) for x, y in zip(a, b)))).correlation.values[iu]
    for _ in range(100):
        n = int(rng.integers(4, 25))
        x = rng.standard_normal((n, 10))
        y = rng.standard_normal((n, 10))
        fx = np.column_stack([maps[k](x[:, e]) for e, k in
                              enumerate(rng.integers(len(maps), size=10))])
        failures += int(np.count_nonzero(
            np.abs(twin_map(fx, y) - twin_map(x, y)) > 1e-12))

    report("criterion 9: property suite (1000 cases per property)",
           failures == 0, f"{failures} failures")

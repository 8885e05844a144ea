"""Self-tests of the benchmark: the oracles agree with first principles, and
each workload's check accepts combinf's real answers and rejects a
deliberately wrong one. Workloads are built small here.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from combinf import cli  # noqa: E402


def execute(workload):
    runs = [bench.invoke(cli, argv) for argv in workload.batch]
    assert all(run.rc == 0 for run in runs), [run.stderr for run in runs]
    return runs


def edit_stdout(run, old, new):
    assert old in run.stdout
    return dataclasses.replace(run, stdout=run.stdout.replace(old, new, 1))


def pvalue_text(q, d):
    return cli._format_pvalue(cli.exact.exact_pvalue(q, d))


def flags(problems, text):
    """True when some problem mentions ``text``: the check rejected the
    answer for the reason under test."""
    return any(text in problem for problem in problems)


def comparison_line(run, prefix):
    return next(line for line in run.stdout.splitlines() if line.startswith(prefix))


# -- oracles ------------------------------------------------------------------

def brute_force_tail(q, d):
    """Share of the C(2q, q) interleavings of two length-q samples whose
    running count difference reaches d."""
    hits = 0
    for a_steps in combinations(range(2 * q), q):
        a_set, gap, worst = set(a_steps), 0, 0
        for step in range(2 * q):
            gap += 1 if step in a_set else -1
            worst = max(worst, abs(gap))
        hits += worst >= d
    return Fraction(hits, math.comb(2 * q, q))


@pytest.mark.parametrize("q", [1, 2, 5, 7])
def test_closed_form_matches_enumeration(q):
    for d in range(q + 2):
        assert oracles.closed_form_pvalue(q, d) == brute_force_tail(q, d)


@pytest.mark.parametrize("q,d", [(10, 3), (115, 46), (399, 60)])
def test_ks_exact_matches_closed_form(q, d):
    assert math.isclose(oracles.ks_exact_pvalue(q, d),
                        float(oracles.closed_form_pvalue(q, d)), rel_tol=1e-12)


def test_mst_weights_match_prim_and_keep_zero_edges():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((9, 9))
    w = (w + w.T) / 2
    w[2, 5] = w[5, 2] = 0.0
    present = np.ones_like(w, bool)
    in_tree, tree = {0}, []
    while len(in_tree) < 9:
        i, j = min(((i, j) for i in in_tree for j in range(9) if j not in in_tree),
                   key=lambda e: w[e])
        in_tree.add(j)
        tree.append(w[i, j])
    assert list(oracles.mst_sorted_weights(w, present)) == sorted(tree)


def test_discrepancy_absorbs_ties_jointly():
    a = np.array([0.1, 0.2, 0.2, 0.5])
    assert oracles.discrepancy(a, a) == 0
    assert oracles.discrepancy(a, a + 1.0) == 4
    assert oracles.has_cross_ties(a, np.array([0.2, 0.3, 0.4, 0.6]))


# -- pvalue -------------------------------------------------------------------

@pytest.fixture(scope="module")
def pvalue_case(tmp_path_factory):
    workload = workloads.prepare_pvalue(5, tmp_path_factory.mktemp("pvalue"),
                                        qs=(40, 115), scales=(1.0, 3.0))
    return workload, execute(workload)


def test_pvalue_check_accepts_real_answers(pvalue_case):
    workload, runs = pvalue_case
    assert workload.check(runs) == []


@pytest.mark.parametrize("dq,dd", [(0, 1), (1, 0)])
def test_pvalue_check_rejects_answer_at_wrong_q_or_d(pvalue_case, dq, dd):
    workload, runs = pvalue_case
    q, d = int(runs[1].argv[2]), int(runs[1].argv[4])
    wrong = edit_stdout(runs[1], pvalue_text(q, d), pvalue_text(q + dq, d + dd))
    assert flags(workload.check([runs[0], wrong] + runs[2:]), "closed form")


def test_pvalue_check_rejects_wrong_numerator(pvalue_case):
    workload, runs = pvalue_case
    frac = cli.exact.exact_pvalue(int(runs[0].argv[2]), int(runs[0].argv[4]))
    wrong = edit_stdout(runs[0], f"{frac.numerator}/", f"{frac.numerator + 1}/")
    assert flags(workload.check([wrong] + runs[1:]), "exact p-value")


# -- compare ------------------------------------------------------------------

@pytest.fixture
def compare_case(tmp_path):
    workload = workloads.prepare_compare(7, tmp_path, p=40, modules=(4, 5))
    return workload, execute(workload)


def test_compare_check_accepts_real_answers(compare_case):
    workload, runs = compare_case
    assert workload.check(runs) == []
    assert all("nodes within" in run.stdout for run in runs)


def test_compare_check_rejects_d_off_by_one(compare_case):
    workload, runs = compare_case
    line = comparison_line(runs[0], "D = ")
    d = int(line.split()[2])
    wrong = edit_stdout(runs[0], line, line.replace(f"D = {d} ", f"D = {d + 1} "))
    assert flags(workload.check([wrong, runs[1]]), f"D = {d + 1}, expected {d}")


def test_compare_check_rejects_pvalue_at_q_plus_one(compare_case):
    workload, runs = compare_case
    d = int(comparison_line(runs[1], "D = ").split()[2])
    wrong = edit_stdout(runs[1], pvalue_text(39, d), pvalue_text(40, d))
    assert flags(workload.check([runs[0], wrong]), "closed form")


def test_compare_check_rejects_missing_node(compare_case):
    workload, runs = compare_case
    node_line = runs[0].stdout.splitlines()[-1]
    wrong = edit_stdout(runs[0], node_line + "\n", "")
    assert flags(workload.check([wrong, runs[1]]), "localized nodes")


@pytest.mark.parametrize("suffix", [".csv", ".svg"])
def test_compare_check_rejects_damaged_output_file(compare_case, suffix):
    workload, runs = compare_case
    path = next(p for p in workload.outputs if p.suffix == suffix)
    text = path.read_text()
    if suffix == ".csv":
        row = text.splitlines()[5]
        name, weight, count = row.split(",")
        text = text.replace(row, f"{name},{float(weight) * (1 + 1e-12)!r},{count}")
    else:
        text = text.replace("<path", "<g", 1)
    path.write_text(text)
    assert flags(workload.check(runs), path.name)


# -- heritability ---------------------------------------------------------------

@pytest.fixture
def heritability_case(tmp_path):
    workload = workloads.prepare_heritability(11, tmp_path, p=24, pairs=8)
    return workload, execute(workload)


def test_heritability_check_accepts_real_answers(heritability_case):
    workload, runs = heritability_case
    assert workload.check(runs) == []


@pytest.mark.parametrize("name", ["C_MZ.csv", "HI.csv"])
def test_heritability_check_rejects_changed_matrix_entry(heritability_case, name):
    workload, runs = heritability_case
    path = next(p for p in workload.outputs if p.name == name)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert flags(workload.check(runs), name)


@pytest.mark.parametrize("dd", [-1, 1])
def test_heritability_check_rejects_d_off_by_one(heritability_case, dd):
    workload, runs = heritability_case
    d = int(comparison_line(runs[0], "D = ").split()[2])
    wrong = edit_stdout(runs[0], f"D = {d} ", f"D = {d + dd} ")
    assert flags(workload.check([wrong]), f"D = {d + dd}, expected {d}")


def test_heritability_check_rejects_pvalue_above_closed_form(heritability_case):
    workload, runs = heritability_case
    d = int(comparison_line(runs[0], "D = ").split()[2])
    wrong = edit_stdout(runs[0], pvalue_text(23, d), pvalue_text(23, d - 1))
    assert flags(workload.check([wrong]), "closed form")


# -- simulate -----------------------------------------------------------------

@pytest.fixture(scope="module")
def simulate_case(tmp_path_factory):
    workload = workloads.prepare_simulate(13, tmp_path_factory.mktemp("simulate"),
                                          replications=1)
    runs = execute(workload)
    report_path = workload.outputs[0]
    return workload, runs, report_path, report_path.read_text()


def _edit_report(case, edit):
    workload, runs, path, original = case
    report = json.loads(original)
    edit(report["results"], report)
    path.write_text(json.dumps(report))
    try:
        return workload.check(runs)
    finally:
        path.write_text(original)


def test_simulate_check_accepts_real_answers(simulate_case):
    workload, runs, _, _ = simulate_case
    assert workload.check(runs) == []


def test_simulate_check_rejects_combinatorial_pvalue_at_q_plus_one(simulate_case):
    cfg_seed = json.loads(simulate_case[3])["config"]["seed"]
    a, b = workloads.modular_pair(10, 40, 4, 5, 0.1, cfg_seed, 3)
    d = oracles.discrepancy(workloads.correlation_mst(a), workloads.correlation_mst(b))

    def edit(results, _):
        results["4 vs 5"]["combinatorial"]["pvalues"][0] = float(
            oracles.closed_form_pvalue(40, d))
    assert flags(_edit_report(simulate_case, edit), "closed form")


@pytest.mark.parametrize("pairing", ["0 vs 0", "4 vs 5"])
def test_simulate_check_rejects_inverted_permutation_pvalue(simulate_case, pairing):
    def edit(results, _):
        values = results[pairing]["permute_0.05%"]["pvalues"]
        values[0] = 1.0 - values[0]
    assert flags(_edit_report(simulate_case, edit), "oracle relabelings")


def test_simulate_check_rejects_pvalue_off_the_relabeling_grid(simulate_case):
    def edit(results, _):
        values = results["0 vs 0"]["permute_0.025%"]["pvalues"]
        values[0] = values[0] - 0.5 / 46
    assert flags(_edit_report(simulate_case, edit), "is not k/46")


def test_simulate_check_rejects_changed_config(simulate_case):
    def edit(_, report):
        report["config"]["sigma"] = 0.2
    assert flags(_edit_report(simulate_case, edit), "report config")


def test_identical_batches_required():
    runs = [bench.Run(["pvalue"], 0, "P = 1\n", "")]
    changed = [dataclasses.replace(runs[0], stdout="P = 0.5\n")]
    assert bench.digest(runs, []) != bench.digest(changed, [])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = [*bench.spans.layer_metrics([]), "trace.overhead_s", "trace.overhead_pct"]
    assert sorted(declared) == sorted(produced)
    assert all(bench.spans.unit_of(name) == unit for name, unit in declared.items())

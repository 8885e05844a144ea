"""The four benchmark workloads: input generation from a seed, the batch of
`combinf` command lines a user would type, and checks of every answer
against the independent computations in ``oracles``.

Each ``prepare_*`` function writes its inputs under ``root`` and returns a
``Workload``. Sizes are keyword arguments so that the self-tests can build
the same workloads small.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Workload:
    warmup: list[list[str]]          # small calls run before anything is timed
    batch: list[list[str]]           # the fixed batch of command lines timed
    outputs: list[Path]              # files the batch writes
    check: Callable[[list], list[str]]  # problems found in one batch's runs


def write_matrix(path: Path, values: np.ndarray, labels) -> None:
    """A labelled square CSV; %.17g round-trips every double exactly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, values, fmt="%.17g", delimiter=",",
               header=",".join(labels), comments="")


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        labels = fh.readline().strip().split(",")
    return labels, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def symmetric(upper: np.ndarray, p: int, diagonal: float) -> np.ndarray:
    """p x p matrix from its strict upper triangle in row-major order."""
    out = np.full((p, p), diagonal)
    iu, ju = np.triu_indices(p, 1)
    out[iu, ju] = upper
    out[ju, iu] = upper
    return out


_PVALUE_LINE = re.compile(r"(\S+) \(exact (\d+)/(\d+)\)$")


def _parse_pvalue(text: str) -> tuple[str, Fraction]:
    m = _PVALUE_LINE.search(text)
    if m is None:
        raise ValueError(f"no p-value in {text!r}")
    return m.group(1), Fraction(int(m.group(2)), int(m.group(3)))


def _parse_comparison(stdout: str) -> dict:
    """The q, D, argmax weight, p-value and localized nodes that
    `combinf compare` and `combinf heritability` print."""
    lines = stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("q = "))
    q = int(lines[start].split("=")[1])
    m = re.fullmatch(r"D = (\d+) at weight (\S+)", lines[start + 1])
    shown, frac = _parse_pvalue(lines[start + 2])
    nodes = [line.strip() for line in lines[start + 4:]]
    return {"q": q, "d": int(m.group(1)), "argmax": m.group(2),
            "shown": shown, "fraction": frac, "nodes": nodes}


def _comparison_problems(label: str, got: dict, wa: np.ndarray,
                         wb: np.ndarray, exact_null: bool) -> list[str]:
    """Check a printed tree comparison against the oracle weight sequences.

    ``exact_null`` False means ties across the two sequences were absorbed:
    the printed p-value must then lie in (0, closed form], the closed form
    being the tie-free null; a tie-aware null can only be smaller.
    """
    q = len(wa)
    d = oracles.discrepancy(wa, wb)
    out = []
    if got["q"] != q:
        out.append(f"{label}: q = {got['q']}, expected {q}")
    if got["d"] != d:
        out.append(f"{label}: D = {got['d']}, expected {d}")
        return out
    argmax = f"{oracles.argmax_weight(wa, wb):.6g}"
    if got["argmax"] != argmax:
        out.append(f"{label}: argmax weight {got['argmax']}, expected {argmax}")
    if exact_null:
        out += oracles.pvalue_problems(label, q, d, got["fraction"],
                                       float(got["fraction"]), got["shown"])
    elif not 0 < got["fraction"] <= oracles.closed_form_pvalue(q, d):
        out.append(f"{label}: tied p-value {got['fraction']} outside "
                   f"(0, closed form {oracles.closed_form_pvalue(q, d)}]")
    return out


# -- simulate ---------------------------------------------------------------

def modular_pair(n, p, k_a, k_b, sigma, seed, stream):
    """The two groups `combinf simulate` draws for one trial: one shared
    standard-normal (n x p) draw; in a group with k modules every column
    copies its module's first column, plus N(0, sigma^2) noise drawn per
    group. k = 0 means p singleton modules. The stream is
    (seed, spawn key ``stream``) of PCG64, as the program documents."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    rng = np.random.Generator(np.random.PCG64(ss))
    x = rng.standard_normal((n, p))

    def group(k):
        size = 1 if k == 0 else p // k
        return x[:, (np.arange(p) // size) * size] + rng.standard_normal((n, p)) * sigma
    return group(k_a), group(k_b)


def correlation_mst(data: np.ndarray) -> np.ndarray:
    """Sorted MST weights with raw column correlations as edge weights
    (simulate's "correlation" mode; exact zeros are absent edges)."""
    corr = np.corrcoef(data, rowvar=False)
    return oracles.mst_sorted_weights(corr, corr != 0.0)


def binomial_tolerance(p_a: float, n_a: int, p_b: float, n_b: int) -> float:
    """Largest |p_a - p_b| accepted for two estimates of one proportion from
    n_a and n_b independent draws: five standard errors of the pooled
    proportion, plus one step of each grid."""
    pooled = (p_a * n_a + p_b * n_b) / (n_a + n_b)
    return (5.0 * math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
            + 1 / n_a + 1 / n_b)


def prepare_simulate(seed: int, root: Path, n=10, p=40, sigma=0.1,
                     pairings=((0, 0), (4, 5)), replications=2,
                     fractions=(0.00025, 0.0005),
                     oracle_relabelings=100) -> Workload:
    cfg = {"seed": int(np.random.SeedSequence(seed).generate_state(1)[0]),
           "n": n, "p": p, "sigma": sigma, "replications": replications,
           "permutation_fractions": list(fractions),
           "pairings": [list(pair) for pair in pairings],
           "weight_mode": "correlation"}
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    warm = dict(cfg, n=4, p=4, replications=1, permutation_fractions=[0.1],
                pairings=[[0, 0]])
    warm_path = root / "warmup.json"
    warm_path.write_text(json.dumps(warm))
    out = root / "out"

    def check(runs) -> list[str]:
        problems = []
        for run in runs:
            if run.rc != 0:
                continue
            report = json.loads((out / "report.json").read_text())
            if report["config"] != cfg:
                problems.append(f"report config {report['config']} != {cfg}")
            if run.stdout != (out / "report.txt").read_text():
                problems.append("printed table differs from report.txt")
            problems += _simulate_problems(report["results"])
        return problems

    def _simulate_problems(results: dict) -> list[str]:
        problems = []
        per_trial = 1 + len(fractions)
        for g, (k_a, k_b) in enumerate(pairings):
            cell = results[f"{k_a} vs {k_b}"]
            for r in range(replications):
                label = f"{k_a} vs {k_b} #{r}"
                a, b = modular_pair(n, p, k_a, k_b, sigma, cfg["seed"],
                                    (g * replications + r) * per_trial)
                wa, wb = correlation_mst(a), correlation_mst(b)
                d = oracles.discrepancy(wa, wb)
                problems += oracles.pvalue_problems(
                    label, p - 1, d, None, cell["combinatorial"]["pvalues"][r])
                null_p = _oracle_null_pvalue(a, b, d, [seed, g, r])
                for f in fractions:
                    count = max(1, math.floor(f * math.comb(2 * n, n)))
                    got = cell[f"permute_{f * 100:g}%"]["pvalues"][r]
                    if round(got * count) / count != got:
                        problems.append(f"{label}: permutation p-value {got!r} "
                                        f"is not k/{count}")
                    tol = binomial_tolerance(got, count, null_p, oracle_relabelings)
                    if abs(got - null_p) > tol:
                        problems.append(
                            f"{label}: permutation p-value {got!r} from {count} "
                            f"relabelings vs {null_p!r} from {oracle_relabelings} "
                            f"oracle relabelings, beyond {tol:.3g}")
        return problems

    def _oracle_null_pvalue(a, b, d_obs, key) -> float:
        pooled = np.vstack([a, b])
        rng = np.random.default_rng(key)
        hits = 0
        for _ in range(oracle_relabelings):
            order = rng.permutation(2 * n)
            d = oracles.discrepancy(correlation_mst(pooled[order[:n]]),
                                    correlation_mst(pooled[order[n:]]))
            hits += d >= d_obs
        return hits / oracle_relabelings

    return Workload(
        warmup=[["simulate", "--config", str(warm_path), "--out", str(root / "warm")]],
        batch=[["simulate", "--config", str(cfg_path), "--out", str(out)]],
        outputs=[out / "report.json", out / "report.txt"],
        check=check)


# -- compare ----------------------------------------------------------------

def modular_correlation(rng, p, modules, n_obs=60, loading=0.6):
    """Column correlations of n_obs draws from a p-node factor model with
    ``modules`` equal contiguous modules, exactly symmetric, unit diagonal."""
    factor = rng.standard_normal((n_obs, modules))
    module_of = np.arange(p) * modules // p
    x = loading * factor[:, module_of] + rng.standard_normal((n_obs, p))
    corr = np.corrcoef(x, rowvar=False)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


_COMPARE_MODES = {
    # CLI mode: (edge weight from the matrix entry, is the entry an edge)
    "distance": (lambda s: s, lambda s: s != 0.0),
    "one-minus": (lambda s: 1.0 - s, lambda s: np.ones(s.shape, bool)),
}


def prepare_compare(seed: int, root: Path, p=400, modules=(8, 10)) -> Workload:
    rng = np.random.default_rng(seed)
    labels = [f"R{k + 1}" for k in range(p)]
    mats = [modular_correlation(rng, p, k) for k in modules]
    paths = [root / "group_a.csv", root / "group_b.csv"]
    for path, mat in zip(paths, mats):
        write_matrix(path, mat, labels)
    warm = [root / "warm_a.csv", root / "warm_b.csv"]
    for path, k in zip(warm, (2, 4)):
        write_matrix(path, modular_correlation(rng, 8, k), [f"W{j}" for j in range(8)])
    out = root / "out"
    out.mkdir()

    batch, outputs, expected = [], [], []
    for mode, (weight, present) in _COMPARE_MODES.items():
        edges = [oracles.mst_edges(weight(m), present(m)) for m in mats]
        trees = [weight(m)[e] for m, e in zip(mats, edges)]
        wa_sorted = np.sort(trees[0])
        center = float(wa_sorted[len(wa_sorted) // 4])
        radius = float(wa_sorted[len(wa_sorted) // 4 + 5]
                       - wa_sorted[len(wa_sorted) // 4 - 5]) / 2.0
        lo, hi = center - radius, center + radius
        nodes = sorted({labels[v] for (rows, cols), w in zip(edges, trees)
                        for i, j, x in zip(rows, cols, w) if lo <= x <= hi
                        for v in (i, j)})
        svg, steps = out / f"{mode}.svg", out / f"{mode}.csv"
        batch.append(["compare", str(paths[0]), str(paths[1]), "--mode", mode,
                      "--svg", str(svg), "--csv", str(steps),
                      "--localize-center", repr(center),
                      "--localize-radius", repr(radius)])
        outputs += [svg, steps]
        expected.append((mode, [np.sort(t) for t in trees], nodes, svg, steps))

    def check(runs) -> list[str]:
        problems = []
        for run, (mode, (wa, wb), nodes, svg, steps) in zip(runs, expected):
            if run.rc != 0:
                continue
            got = _parse_comparison(run.stdout)
            problems += _comparison_problems(mode, got, wa, wb, exact_null=True)
            if got["nodes"] != nodes:
                problems.append(f"{mode}: localized nodes {got['nodes']} != {nodes}")
            problems += _step_csv_problems(mode, steps, [("group_a", wa),
                                                         ("group_b", wb)])
            root_el = ET.parse(svg).getroot()
            n_paths = len(root_el.findall("{http://www.w3.org/2000/svg}path"))
            if root_el.tag != "{http://www.w3.org/2000/svg}svg" or n_paths != 2:
                problems.append(f"{mode}: {svg.name} is not an SVG with two curves")
        return problems

    return Workload(
        warmup=[["compare", str(warm[0]), str(warm[1]), "--mode", "distance"]],
        batch=batch, outputs=outputs, check=check)


def _step_csv_problems(label, path: Path, series) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    expect = [["series", "weight", "edges_added"]] + [
        [name, float(w), str(j + 1)] for name, ws in series for j, w in enumerate(ws)]
    got = rows[:1] + [[name, float(w), c] for name, w, c in rows[1:]]
    return [] if got == expect else [f"{label}: {path.name} is not the two "
                                     "sorted tree weight step functions"]


# -- heritability -------------------------------------------------------------

def twin_cohort(rng, pairs: int, edges: int, rho: np.ndarray):
    """Edge values of twin A and twin B across pairs, each (pairs x edges):
    a shared N(0,1) part with weight sqrt(rho) per edge, so the twins'
    edgewise correlation is rho."""
    shared = rng.standard_normal((pairs, edges)) * np.sqrt(rho)
    own = np.sqrt(1.0 - rho)
    return (shared + own * rng.standard_normal((pairs, edges)),
            shared + own * rng.standard_normal((pairs, edges)))


def _write_cohort(root: Path, name: str, a, b, p: int, labels) -> Path:
    items = []
    for k in range(a.shape[0]):
        pair = {}
        for side, vals in (("a", a[k]), ("b", b[k])):
            rel = f"{name}/pair{k:02d}_{side}.csv"
            write_matrix(root / rel, symmetric(vals, p, 0.0), labels)
            pair[side] = rel
        items.append(pair)
    manifest = root / f"{name}.json"
    manifest.write_text(json.dumps({"pairs": items}))
    return manifest


def prepare_heritability(seed: int, root: Path, p=116, pairs=20,
                         rho_mz=0.55, rho_dz=0.45) -> Workload:
    """MZ and DZ cohorts whose edgewise twin correlations share a per-edge
    offset in [-0.2, 0.2]; the MZ level is higher, so the two trees differ
    but overlap and D lies strictly between 0 and q."""
    rng = np.random.default_rng(seed)
    labels = [f"N{k + 1}" for k in range(p)]
    edges = p * (p - 1) // 2
    offset = rng.uniform(-0.2, 0.2, edges)
    cohorts = {"mz": twin_cohort(rng, pairs, edges, rho_mz + offset),
               "dz": twin_cohort(rng, pairs, edges, rho_dz + offset)}
    manifests = {name: _write_cohort(root, name, a, b, p, labels)
                 for name, (a, b) in cohorts.items()}
    expect = {name: symmetric(oracles.twin_spearman(a, b), p, 1.0)
              for name, (a, b) in cohorts.items()}
    small = {name: _write_cohort(root, f"warm_{name}",
                                 *twin_cohort(rng, 3, 15, np.full(15, 0.5)), 6,
                                 labels[:6]) for name in ("mz", "dz")}
    out = root / "out"
    files = {name: out / name for name in ("C_MZ.csv", "C_DZ.csv", "HI.csv")}

    def check(runs) -> list[str]:
        problems = []
        for run in runs:
            if run.rc != 0:
                continue
            read = {name: read_matrix(path) for name, path in files.items()}
            for name, (got_labels, _) in read.items():
                if got_labels != labels:
                    problems.append(f"{name}: labels differ from the inputs")
            c_mz, c_dz, hi = (read[name][1] for name in files)
            for name, got, want in (("C_MZ", c_mz, expect["mz"]),
                                    ("C_DZ", c_dz, expect["dz"])):
                if not np.array_equal(got, want):
                    bad = tuple(int(k) for k in np.argwhere(got != want)[0])
                    problems.append(f"{name}.csv differs from the columnwise rank "
                                    f"correlation at {bad}")
            if not np.array_equal(hi, 2.0 * (c_mz - c_dz)):
                problems.append("HI.csv != 2 (C_MZ - C_DZ) of the written files")
            everything = np.ones((p, p), bool)
            wa = oracles.mst_sorted_weights(1.0 - expect["mz"], everything)
            wb = oracles.mst_sorted_weights(1.0 - expect["dz"], everything)
            ties = oracles.has_cross_ties(wa, wb)
            warned = "tied weights" in run.stderr
            if ties != warned:
                problems.append(f"tie warning printed: {warned}, ties present: {ties}")
            got = _parse_comparison(run.stdout)
            if not 0 < got["d"] < p - 1:
                problems.append(f"D = {got['d']} is not strictly inside (0, {p - 1})")
            problems += _comparison_problems("MZ vs DZ", got, wa, wb,
                                             exact_null=not ties)
        return problems

    return Workload(
        warmup=[["heritability", "--mz", str(small["mz"]), "--dz", str(small["dz"]),
                 "--out", str(root / "warm_out")]],
        batch=[["heritability", "--mz", str(manifests["mz"]),
                "--dz", str(manifests["dz"]), "--out", str(out)]],
        outputs=list(files.values()), check=check)


# -- pvalue -------------------------------------------------------------------

def prepare_pvalue(seed: int, root: Path, qs=(115, 999, 1999, 3999),
                   scales=(1.0, 3.0, 6.0)) -> Workload:
    """d = scale * sqrt(q), jittered by the seed within +-2, gives tail
    probabilities near 0.7, 2e-4 and 5e-16 at every q."""
    rng = np.random.default_rng(seed)
    grid = [(q, max(1, round(s * math.sqrt(q)) + int(rng.integers(-2, 3))))
            for q in qs for s in scales]

    def check(runs) -> list[str]:
        problems = []
        for run, (q, d) in zip(runs, grid):
            if run.rc != 0:
                continue
            head = f"P(D_{q} >= {d}) = "
            if not run.stdout.startswith(head):
                problems.append(f"(q={q}, d={d}): output {run.stdout[:60]!r}")
                continue
            shown, frac = _parse_pvalue(run.stdout.strip())
            problems += oracles.pvalue_problems(f"(q={q}, d={d})", q, d, frac,
                                                float(frac), shown)
        return problems

    return Workload(
        warmup=[["pvalue", "--q", "10", "--d", "3"]],
        batch=[["pvalue", "--q", str(q), "--d", str(d)] for q, d in grid],
        outputs=[], check=check)


PREPARE = {"simulate": prepare_simulate, "compare": prepare_compare,
           "heritability": prepare_heritability, "pvalue": prepare_pvalue}

"""Block-modular random network simulation and the sampled-permutation
baseline for benchmarking the exact combinatorial test."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _kernels
from .connectivity import DataMatrix
from .errors import ValidationError
from .exact import exact_pvalue

DEFAULT_PAIRINGS = ((0, 0), (4, 4), (4, 5), (4, 8), (5, 10))
EXHAUSTIVE_SPACE_LIMIT = 100_000

# Weight modes for the simulation statistic: "correlation" builds the MST on
# the raw correlations (which is what reproduces the published benchmark
# table), "one_minus" on 1 - correlation as in the twin pipeline.
WEIGHT_MODES = ("correlation", "one_minus")


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream: (algorithm, master seed, index).

    Distinct stream indices yield statistically independent generators, so
    replications can run in any order (or in parallel) without changing
    results.
    """

    seed: int
    stream: int = 0
    algorithm: str = "pcg64"

    def generator(self) -> np.random.Generator:
        if self.algorithm != "pcg64":
            raise ValidationError(f"unknown rng algorithm {self.algorithm!r}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the modular-network benchmark."""

    seed: int
    n: int = 10
    p: int = 40
    sigma: float = 0.1
    replications: int = 100
    permutation_fractions: tuple[float, ...] = (0.001, 0.005, 0.01)
    pairings: tuple[tuple[int, int], ...] = DEFAULT_PAIRINGS
    weight_mode: str = "correlation"

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ValidationError(
                f"/weight_mode: must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")
        if self.n < 2:
            raise ValidationError(f"/n: need n >= 2, got {self.n}")
        if self.p < 2:
            raise ValidationError(f"/p: need p >= 2, got {self.p}")
        if self.sigma < 0:
            raise ValidationError(f"/sigma: need sigma >= 0, got {self.sigma}")
        if self.replications < 1:
            raise ValidationError(
                f"/replications: need >= 1, got {self.replications}")
        for idx, f in enumerate(self.permutation_fractions):
            if not (0 < f <= 1):
                raise ValidationError(
                    f"/permutation_fractions/{idx}: fraction must be in (0,1], got {f}")
        for idx, (ka, kb) in enumerate(self.pairings):
            for k in (ka, kb):
                if k < 0 or (k > 0 and self.p % k != 0):
                    raise ValidationError(
                        f"/pairings/{idx}: module count {k} must be 0 or divide p={self.p}")
        object.__setattr__(self, "permutation_fractions",
                           tuple(float(f) for f in self.permutation_fractions))
        object.__setattr__(self, "pairings",
                           tuple((int(a), int(b)) for a, b in self.pairings))

    @classmethod
    def from_json(cls, doc: dict) -> "SimulationConfig":
        if "seed" not in doc:
            raise ValidationError("/seed: required")
        known = {"seed", "n", "p", "sigma", "replications",
                 "permutation_fractions", "pairings", "weight_mode"}
        for key in doc:
            if key not in known:
                raise ValidationError(f"/{key}: unknown config key")
        kwargs = dict(doc)
        if "permutation_fractions" in kwargs:
            kwargs["permutation_fractions"] = tuple(kwargs["permutation_fractions"])
        if "pairings" in kwargs:
            kwargs["pairings"] = tuple(tuple(pair) for pair in kwargs["pairings"])
        return cls(**kwargs)

    def to_json(self) -> dict:
        return {
            "seed": self.seed, "n": self.n, "p": self.p, "sigma": self.sigma,
            "replications": self.replications,
            "permutation_fractions": list(self.permutation_fractions),
            "pairings": [list(pair) for pair in self.pairings],
            "weight_mode": self.weight_mode,
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Per-(pairing, method) p-values across replications plus summaries."""

    config: SimulationConfig
    pvalues: dict = field(default_factory=dict)  # pairing label -> method -> list

    def mean(self, pairing: str, method: str) -> float:
        return float(np.mean(self.pvalues[pairing][method]))

    def std(self, pairing: str, method: str) -> float:
        vals = self.pvalues[pairing][method]
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1))

    @property
    def methods(self) -> list[str]:
        first = next(iter(self.pvalues.values()))
        return list(first)

    def to_json(self) -> dict:
        results = {}
        for pairing, by_method in self.pvalues.items():
            results[pairing] = {
                method: {
                    "mean": self.mean(pairing, method),
                    "std": self.std(pairing, method),
                    "pvalues": list(vals),
                }
                for method, vals in by_method.items()
            }
        return {"config": self.config.to_json(), "results": results}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def to_text_table(self) -> str:
        methods = self.methods
        width = 20
        header = "pairing".ljust(10) + "".join(m.ljust(width) for m in methods)
        lines = [header, "-" * len(header)]
        for pairing in self.pvalues:
            cells = [
                f"{self.mean(pairing, m):.3f} +/- {self.std(pairing, m):.3f}".ljust(width)
                for m in methods
            ]
            lines.append(pairing.ljust(10) + "".join(cells))
        return "\n".join(lines) + "\n"


def _check_modular_params(p: int, k: int, sigma: float) -> int:
    k_eff = p if k == 0 else k
    if k_eff < 1 or p % k_eff != 0:
        raise ValidationError(f"module count {k} must be 0 or divide p={p}")
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    return k_eff


def _apply_modular_structure(x: np.ndarray, k_eff: int, sigma: float,
                             rng: np.random.Generator) -> np.ndarray:
    n, p = x.shape
    c = p // k_eff
    noise = rng.standard_normal((n, p)) * sigma
    y = np.empty((n, p))
    for j in range(k_eff):
        base = x[:, c * j]
        for i in range(c):
            y[:, c * j + i] = base + noise[:, c * j + i]
    return y


def simulate_modular_data(n: int, p: int, k: int, sigma: float,
                          stream: RngStream) -> DataMatrix:
    """Standard-normal data with a block-modular dependency among columns.

    With k modules of c = p/k nodes each, every column in a module equals the
    module's first source column plus N(0, sigma^2) noise. k = 0 means p
    singleton modules (no dependency).
    """
    k_eff = _check_modular_params(p, k, sigma)
    rng = stream.generator()
    x = rng.standard_normal((n, p))
    return DataMatrix(values=_apply_modular_structure(x, k_eff, sigma, rng))


def simulate_modular_pair(n: int, p: int, k_a: int, k_b: int, sigma: float,
                          stream: RngStream) -> tuple[DataMatrix, DataMatrix]:
    """Two modular groups built on the SAME underlying standard-normal draw.

    This is the benchmark's paired design: the groups differ only in module
    structure (and independent noise), so equal module counts give nearly
    identical networks while different counts differ structurally.
    """
    ka_eff = _check_modular_params(p, k_a, sigma)
    kb_eff = _check_modular_params(p, k_b, sigma)
    rng = stream.generator()
    x = rng.standard_normal((n, p))
    y_a = _apply_modular_structure(x, ka_eff, sigma, rng)
    y_b = _apply_modular_structure(x, kb_eff, sigma, rng)
    return DataMatrix(values=y_a), DataMatrix(values=y_b)


def _one_minus_flag(weight_mode: str) -> bool:
    if weight_mode not in WEIGHT_MODES:
        raise ValidationError(
            f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    return weight_mode == "one_minus"


def observed_discrepancy(group_a: DataMatrix, group_b: DataMatrix,
                         weight_mode: str = "one_minus") -> int:
    """Max step-function gap between the two groups' correlation-MST weight
    sequences: the permutation null's statistic on the observed split."""
    if group_a.n != group_b.n or group_a.p != group_b.p:
        raise ValidationError(
            f"groups must share n and p, got {group_a.values.shape} "
            f"and {group_b.values.shape}")
    pair = np.stack([group_a.values, group_b.values])[None]
    return int(_kernels.mst_discrepancies(pair, _one_minus_flag(weight_mode))[0])


def run_combinatorial_trial(group_a: DataMatrix, group_b: DataMatrix,
                            weight_mode: str = "one_minus") -> float:
    """Exact p-value for the MST shape difference between two groups:
    correlation -> MST edge weights -> discrepancy -> exact null. The groups
    may differ in n. A column that is constant within a group raises
    ValidationError naming it."""
    if group_a.p != group_b.p:
        raise ValidationError(
            f"groups differ in node count: {group_a.p} vs {group_b.p}")
    one_minus = _one_minus_flag(weight_mode)
    wa = _kernels.sorted_mst_weights(
        group_a.values[None], one_minus,
        lambda k, j: f"column {j} is constant in group A")
    wb = _kernels.sorted_mst_weights(
        group_b.values[None], one_minus,
        lambda k, j: f"column {j} is constant in group B")
    d, _ = _kernels.discrepancies(wa, wb)
    return exact_pvalue(group_a.p - 1, int(d[0])).real_value


def permutation_test(group_a: DataMatrix, group_b: DataMatrix,
                     num_permutations: int, stream: RngStream,
                     add_one: bool = False, exhaustive: bool = False,
                     weight_mode: str = "one_minus") -> float:
    """Sampled permutation baseline: relabel the pooled 2n rows into two
    groups of n, recompute correlations, MSTs, and the discrepancy each time.

    Default p-value is the plain proportion #{D* >= D_obs} / N; ``add_one``
    applies the (count+1)/(N+1) correction. ``exhaustive`` enumerates every
    split (only for small spaces).
    """
    if group_a.n != group_b.n or group_a.p != group_b.p:
        raise ValidationError(
            f"groups must share n and p, got {group_a.values.shape} "
            f"and {group_b.values.shape}")
    if num_permutations < 1:
        raise ValidationError(
            f"need at least 1 permutation, got {num_permutations}")
    n = group_a.n
    cap = math.comb(2 * n, n)
    if num_permutations > cap:
        warnings.warn(
            f"requested {num_permutations} permutations but only {cap} "
            "distinct relabelings exist; capping", stacklevel=2)
        num_permutations = cap
    one_minus = _one_minus_flag(weight_mode)
    d_obs = observed_discrepancy(group_a, group_b, weight_mode)
    pooled = np.vstack([group_a.values, group_b.values])

    if exhaustive:
        if cap > EXHAUSTIVE_SPACE_LIMIT:
            raise ValidationError(
                f"exhaustive enumeration supports C(2n,n) <= "
                f"{EXHAUSTIVE_SPACE_LIMIT}, got {cap}")
        all_idx = frozenset(range(2 * n))
        perms = np.array(
            [list(sel) + sorted(all_idx.difference(sel))
             for sel in combinations(range(2 * n), n)], dtype=np.int64)
    else:
        rng = stream.generator()
        perms = np.array([rng.permutation(2 * n)
                          for _ in range(num_permutations)], dtype=np.int64)
    null = _kernels.permutation_null(pooled, perms, one_minus)
    hits = int(np.count_nonzero(null >= d_obs))
    if add_one:
        return (hits + 1) / (len(null) + 1)
    return hits / len(null)


def permutation_count(fraction: float, n: int) -> int:
    """floor(fraction * C(2n, n)), at least 1."""
    return max(1, math.floor(fraction * math.comb(2 * n, n)))


def _method_label(fraction: float) -> str:
    return f"permute_{fraction * 100:g}%"


def run_experiment(cfg: SimulationConfig, progress=None) -> ExperimentReport:
    """Run every (pairing, method) cell for ``cfg.replications`` independent
    trials. Fully deterministic given cfg.seed: each trial consumes fixed
    stream indices, so execution order is irrelevant."""
    methods = ["combinatorial"] + [_method_label(f)
                                   for f in cfg.permutation_fractions]
    pvalues = {}
    streams_per_trial = 1 + len(cfg.permutation_fractions)
    for g, (ka, kb) in enumerate(cfg.pairings):
        label = f"{ka} vs {kb}"
        cell = {m: [] for m in methods}
        for r in range(cfg.replications):
            base = (g * cfg.replications + r) * streams_per_trial
            data_a, data_b = simulate_modular_pair(
                cfg.n, cfg.p, ka, kb, cfg.sigma, RngStream(cfg.seed, base))
            cell["combinatorial"].append(
                run_combinatorial_trial(data_a, data_b, cfg.weight_mode))
            for fi, frac in enumerate(cfg.permutation_fractions):
                num = permutation_count(frac, cfg.n)
                pv = permutation_test(data_a, data_b, num,
                                      RngStream(cfg.seed, base + 1 + fi),
                                      weight_mode=cfg.weight_mode)
                cell[_method_label(frac)].append(pv)
            if progress is not None:
                progress(label, r + 1, cfg.replications)
        pvalues[label] = cell
    return ExperimentReport(config=cfg, pvalues=pvalues)

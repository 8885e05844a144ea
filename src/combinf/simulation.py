"""Block-modular random network simulation and the permutation test over
drawn or listed relabelings, the baseline for the exact combinatorial test."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, combinations

from ._lazy import np

from . import _kernels
from .connectivity import DataMatrix
from .errors import ValidationError
from .mst import WeightMode, compare_msts

DEFAULT_PAIRINGS = ((0, 0), (4, 4), (4, 5), (4, 8), (5, 10))
# Most relabeling indices one permutation fraction may ask for. A listing
# holds 2n int64 indices per relabeling, so at most 32 MiB, drawn in place;
# permutation_test checks it in a bool array an eighth its size (4.0 MiB more
# at n = 11). At n = 10 this admits all C(20, 10) = 184,756 relabelings.
MAX_RELABELING_INDICES = 2 ** 22

# The config file's weight_mode names; "correlation" gives the paper's table.
_WEIGHT_MODES = {"correlation": WeightMode.DISTANCE,
                 "one_minus": WeightMode.ONE_MINUS_SIMILARITY}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON shape of each config key, in field order: a test and what it
# demands. A tuple passes where the shape says list.
_JSON_SHAPES = {
    "seed": (_is_int, "an integer"),
    "n": (_is_int, "an integer"),
    "p": (_is_int, "an integer"),
    "sigma": (_is_number, "a number"),
    "replications": (_is_int, "an integer"),
    "permutation_fractions": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
        "a list of numbers"),
    "pairings": (
        lambda v: isinstance(v, (list, tuple)) and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(map(_is_int, pair)) for pair in v),
        "a list of [integer, integer] pairs"),
    "weight_mode": (lambda v: isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible PCG64 random stream: (master seed, index).

    Distinct stream indices yield statistically independent generators, so
    replications can run in any order (or in parallel) without changing
    results.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def _too_many_relabelings(fraction: float, n: int) -> bool:
    """Whether fraction * C(2n, n) relabelings of 2n indices each pass
    MAX_RELABELING_INDICES, in exact integers. The count grows with n, so
    the walk up C(2k, k) stops at the first k past the bound."""
    num, den = fraction.as_integer_ratio()
    comb = 1
    for k in range(1, n + 1):
        comb = comb * (2 * k) * (2 * k - 1) // (k * k)
        if num * comb * 2 * k > MAX_RELABELING_INDICES * den:
            return True
    return False


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
        """Each value's type and shape, then its range; a fault raises
        ValidationError naming its key."""
        for key, (test, shape) in _JSON_SHAPES.items():
            value = getattr(self, key)
            if not test(value):
                raise ValidationError(f"/{key}: must be {shape}, got {value!r}")
        if self.seed < 0:
            raise ValidationError(f"/seed: need seed >= 0, got {self.seed}")
        if self.weight_mode not in tuple(_WEIGHT_MODES):
            raise ValidationError(f"/weight_mode: must be one of "
                                  f"{tuple(_WEIGHT_MODES)}, got {self.weight_mode!r}")
        if self.n < 2:
            raise ValidationError(f"/n: need n >= 2, got {self.n}")
        if self.p < 2:
            raise ValidationError(f"/p: need p >= 2, got {self.p}")
        # noise * sigma stays finite for every normal draw up to 2**1000
        if not 0 <= self.sigma <= 2.0 ** 1000:
            raise ValidationError(
                f"/sigma: need 0 <= sigma <= 2**1000, got {self.sigma}")
        if self.replications < 1:
            raise ValidationError(
                f"/replications: need >= 1, got {self.replications}")
        # Report columns and rows are keyed by label, so a repeated label
        # would merge or overwrite results.
        labels = {}
        for idx, f in enumerate(self.permutation_fractions):
            if not (0 < f <= 1):
                raise ValidationError(
                    f"/permutation_fractions/{idx}: fraction must be in (0,1], got {f}")
            if _too_many_relabelings(f, self.n):
                raise ValidationError(
                    f"/permutation_fractions/{idx}: {f} x C({2 * self.n}, "
                    f"{self.n}) relabelings of {2 * self.n} indices each exceed "
                    f"{MAX_RELABELING_INDICES} indices")
            try:
                permutation_count(f, self.n)
            except OverflowError:
                raise ValidationError(
                    f"/permutation_fractions/{idx}: {f} x C({2 * self.n}, "
                    f"{self.n}) has no double value: C({2 * self.n}, "
                    f"{self.n}) is past the largest double") from None
            label = _method_label(float(f))
            if label in labels:
                raise ValidationError(
                    f"/permutation_fractions/{idx}: {f} has the label {label} "
                    f"of /permutation_fractions/{labels[label]}")
            labels[label] = idx
        if not self.pairings:
            raise ValidationError("/pairings: need at least one pairing")
        pairs = {}
        for idx, (ka, kb) in enumerate(self.pairings):
            for k in (ka, kb):
                if k < 0 or (k > 0 and self.p % k != 0):
                    raise ValidationError(
                        f"/pairings/{idx}: module count {k} must be 0 or divide p={self.p}")
            pair = (int(ka), int(kb))
            if pair in pairs:
                raise ValidationError(
                    f"/pairings/{idx}: [{ka}, {kb}] repeats /pairings/{pairs[pair]}")
            pairs[pair] = idx
        object.__setattr__(self, "permutation_fractions",
                           tuple(float(f) for f in self.permutation_fractions))
        object.__setattr__(self, "pairings",
                           tuple((int(a), int(b)) for a, b in self.pairings))

    @classmethod
    def from_json(cls, doc) -> "SimulationConfig":
        """Config from parsed JSON; a document that is not an object, has no
        seed or has an unknown key raises ValidationError naming it."""
        if not isinstance(doc, dict):
            raise ValidationError(
                f"/: config must be a JSON object, got {type(doc).__name__}")
        if "seed" not in doc:
            raise ValidationError("/seed: required")
        for key in doc:
            if key not in _JSON_SHAPES:
                raise ValidationError(f"/{key}: unknown config key")
        return cls(**doc)

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
        """Pairings down, methods across; each column is 10 (the first) or
        20 characters wide, or as wide as its longest entry and 2 spaces."""
        rows = [["pairing", *self.methods]] + [
            [pairing, *(f"{self.mean(pairing, m):.3f} +/- "
                        f"{self.std(pairing, m):.3f}" for m in self.methods)]
            for pairing in self.pvalues]
        widths = [max(10 if k == 0 else 20, *(len(cell) + 2 for cell in column))
                  for k, column in enumerate(zip(*rows))]
        lines = ["".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows]
        lines.insert(1, "-" * len(lines[0]))
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
    # each column is its module's first column plus its own noise
    return x[:, np.arange(p) // c * c] + noise


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


def _weight_mode(group_a: DataMatrix, group_b: DataMatrix, mode):
    if group_a.p != group_b.p:
        raise ValidationError(
            f"groups differ in node count: {group_a.p} vs {group_b.p}")
    return WeightMode(mode)


def run_combinatorial_trial(group_a: DataMatrix, group_b: DataMatrix,
                            mode: WeightMode | str) -> float:
    """Exact p-value for the MST shape difference between two groups: each
    group's correlation-MST weights by ``mode`` compared by ``compare_msts``,
    the route of ``combinf compare``. The groups may differ in n. A column
    that is constant within a group raises ValidationError naming it."""
    mode = _weight_mode(group_a, group_b, mode)

    def weights(group, name):
        return _kernels.mst_weights(
            group.values[None], mode,
            lambda k, j: f"column {j} is constant in group {name}")[0]
    return float(compare_msts(weights(group_a, "A"), weights(group_b, "B"))[1])


def sampled_relabelings(n: int, count: int, stream: RngStream) -> np.ndarray:
    """The identity, then ``count`` relabelings of 2n rows drawn from
    ``stream``, each as ``rng.permutation(2n)`` would."""
    if count < 1:
        raise ValidationError(f"need at least 1 permutation, got {count}")
    perms = np.tile(np.arange(2 * n, dtype=np.int64), (count + 1, 1))
    rows = perms[1:]
    stream.generator().permuted(rows, axis=1, out=rows)
    return perms


def all_splits(n: int) -> np.ndarray:
    """The identity, then every split of 2n rows into two groups of n. D is
    symmetric in the two groups, so the C(2n, n) / 2 splits with row 0 in
    group A are listed once each, in lexicographic order; the first is the
    identity again, which keeps the p-value exact over every split."""
    count = math.comb(2 * n, n) // 2 + 1
    rest = np.fromiter(
        chain(range(1, n),
              chain.from_iterable(combinations(range(1, 2 * n), n - 1))),
        dtype=np.int64, count=count * (n - 1)).reshape(count, n - 1)
    in_a = np.zeros((count, 2 * n), dtype=bool)
    in_a[:, 0] = True
    np.put_along_axis(in_a, rest, True, axis=1)
    return np.argsort(~in_a, axis=1, kind="stable")


def permutation_test(group_a: DataMatrix, group_b: DataMatrix, relabelings,
                     mode: WeightMode | str, add_one: bool = False) -> float:
    """Permutation p-value of D, trees weighted by ``mode``, over relabelings
    of the pooled 2n rows, as listed by ``sampled_relabelings`` or
    ``all_splits``: each row permutes 0..2n-1 and its first n entries form
    group A; row 0 is the identity, the observed split, whose D is D_obs.
    The p-value is #{D* >= D_obs} / N over rows 1..N; ``add_one`` gives
    (count + 1) / (N + 1) instead."""
    if group_a.n != group_b.n:
        raise ValidationError(f"permutation test needs groups of equal n, "
                              f"got {group_a.n} and {group_b.n}")
    mode = _weight_mode(group_a, group_b, mode)
    perms, n2 = np.asarray(relabelings), 2 * group_a.n
    if (perms.ndim != 2 or len(perms) < 2 or perms.shape[1] != n2
            or perms.dtype.kind not in "iu"):
        raise ValidationError(f"relabelings must be integers, at least 2 rows "
                              f"of {n2}, got {perms.dtype} {perms.shape}")
    seen = np.zeros(perms.shape, dtype=bool)
    if perms.min() >= 0 and perms.max() < n2:
        # each row marks its n2 entries: all are marked iff it repeats none
        np.put_along_axis(seen, perms, True, axis=1)
    if not seen.all() or (perms[0] != np.arange(n2)).any():
        raise ValidationError(f"each relabeling must permute 0..{n2 - 1}, and "
                              "relabeling 0 be the identity, the observed split")
    null = _kernels.permutation_null(
        np.vstack([group_a.values, group_b.values]), perms, mode)
    hits = int(np.count_nonzero(null[1:] >= null[0]))
    return (hits + 1) / null.size if add_one else hits / (null.size - 1)


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
    mode = _WEIGHT_MODES[cfg.weight_mode]
    pvalues = {}
    streams_per_trial = 1 + len(cfg.permutation_fractions)
    every = math.comb(2 * cfg.n, cfg.n)
    # one listing of every split serves each trial: it depends on n alone
    splits = (all_splits(cfg.n) if any(permutation_count(f, cfg.n) >= every
                                       for f in cfg.permutation_fractions)
              else None)
    for g, (ka, kb) in enumerate(cfg.pairings):
        label = f"{ka} vs {kb}"
        cell = {m: [] for m in methods}
        for r in range(cfg.replications):
            base = (g * cfg.replications + r) * streams_per_trial
            data_a, data_b = simulate_modular_pair(
                cfg.n, cfg.p, ka, kb, cfg.sigma, RngStream(cfg.seed, base))
            cell["combinatorial"].append(
                run_combinatorial_trial(data_a, data_b, mode))
            for fi, frac in enumerate(cfg.permutation_fractions):
                count = permutation_count(frac, cfg.n)
                relabelings = (splits if count >= every
                               else sampled_relabelings(
                                   cfg.n, count,
                                   RngStream(cfg.seed, base + 1 + fi)))
                cell[_method_label(frac)].append(
                    permutation_test(data_a, data_b, relabelings, mode))
            if progress is not None:
                progress(label, r + 1, cfg.replications)
        pvalues[label] = cell
    return ExperimentReport(config=cfg, pvalues=pvalues)

import math

import numpy as np
import pytest

from combinf import simulation as sim
from combinf.connectivity import DataMatrix, pearson_correlation_matrix
from combinf.errors import ValidationError
from combinf.exact import exact_pvalue
from combinf.mst import WeightMode, compare_msts, mst_from_connectivity


class TestRngStream:
    def test_reproducible(self):
        a = sim.RngStream(7, 3).generator().standard_normal(10)
        b = sim.RngStream(7, 3).generator().standard_normal(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sim.RngStream(7, 0).generator().standard_normal(10)
        b = sim.RngStream(7, 1).generator().standard_normal(10)
        assert not np.array_equal(a, b)


class TestConfig:
    def test_defaults_match_benchmark(self):
        cfg = sim.SimulationConfig(seed=1)
        assert (cfg.n, cfg.p, cfg.sigma) == (10, 40, 0.1)
        assert cfg.permutation_fractions == (0.001, 0.005, 0.01)
        assert cfg.pairings == sim.DEFAULT_PAIRINGS

    def test_bad_module_count(self):
        with pytest.raises(ValidationError, match="/pairings/0"):
            sim.SimulationConfig(seed=1, pairings=((3, 4),))

    def test_bad_fraction(self):
        with pytest.raises(ValidationError, match="/permutation_fractions/1"):
            sim.SimulationConfig(seed=1, permutation_fractions=(0.01, 1.5))

    def test_relabeling_cap(self):
        # all C(20, 10) relabelings fit, and 2n indices per relabeling count
        # against the bound at n = 11; 1.4e8 relabelings at n = 20 do not
        sim.SimulationConfig(seed=1, permutation_fractions=(1.0,))
        edge = sim.MAX_RELABELING_INDICES / (math.comb(22, 11) * 22)
        sim.SimulationConfig(seed=1, n=11, permutation_fractions=(edge * 0.999,))
        for n, f in ((11, edge * 1.001), (20, 0.001)):
            with pytest.raises(ValidationError, match="/permutation_fractions/0"):
                sim.SimulationConfig(seed=1, n=n, permutation_fractions=(f,))

    def test_no_pairings(self):
        # A report with no cells has no table to print.
        with pytest.raises(ValidationError, match="/pairings: need at least one"):
            sim.SimulationConfig(seed=1, pairings=())

    def test_zero_replications(self):
        with pytest.raises(ValidationError, match="/replications"):
            sim.SimulationConfig(seed=1, replications=0)

    def test_json_round_trip(self):
        cfg = sim.SimulationConfig(seed=5, n=6, p=12, replications=2,
                                   pairings=((0, 0), (3, 4)))
        assert sim.SimulationConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="/bogus"):
            sim.SimulationConfig.from_json({"seed": 1, "bogus": 2})

    def test_missing_seed(self):
        with pytest.raises(ValidationError, match="/seed"):
            sim.SimulationConfig.from_json({"n": 10})


class TestModularData:
    def test_sigma_zero_forces_unit_correlation(self):
        data = sim.simulate_modular_data(10, 40, 4, 0.0, sim.RngStream(3, 0))
        corr = pearson_correlation_matrix(data).values
        c = 10
        for j in range(4):
            block = corr[c * j:c * (j + 1), c * j:c * (j + 1)]
            assert np.all(np.abs(block - 1.0) <= 1e-12)

    def test_zero_modules_no_block_structure(self):
        data = sim.simulate_modular_data(10, 40, 0, 0.1, sim.RngStream(3, 1))
        corr = pearson_correlation_matrix(data).values
        iu = np.triu_indices(40, k=1)
        assert np.abs(corr[iu]).mean() < 0.5

    def test_block_structure_visible(self):
        data = sim.simulate_modular_data(10, 40, 4, 0.1, sim.RngStream(3, 2))
        corr = pearson_correlation_matrix(data).values
        within = corr[0:10, 0:10][np.triu_indices(10, k=1)]
        between = corr[0:10, 10:20].ravel()
        assert within.mean() > 0.9
        assert abs(between.mean()) < 0.5

    def test_invalid_module_count(self):
        with pytest.raises(ValidationError):
            sim.simulate_modular_data(10, 40, 7, 0.1, sim.RngStream(3, 3))

    def test_matches_per_column_construction(self):
        # Each column is its module's first column plus its own noise, built
        # here column by column from the same two draws.
        n, p, k, sigma = 6, 12, 3, 0.1
        rng = sim.RngStream(9, 5).generator()
        x = rng.standard_normal((n, p))
        noise = rng.standard_normal((n, p)) * sigma
        c = p // k
        want = np.empty((n, p))
        for j in range(p):
            want[:, j] = x[:, j // c * c] + noise[:, j]
        got = sim.simulate_modular_data(n, p, k, sigma, sim.RngStream(9, 5))
        assert np.array_equal(got.values, want)

    def test_deterministic(self):
        a = sim.simulate_modular_data(5, 8, 2, 0.1, sim.RngStream(9, 4))
        b = sim.simulate_modular_data(5, 8, 2, 0.1, sim.RngStream(9, 4))
        assert np.array_equal(a.values, b.values)


class TestCombinatorialTrial:
    def test_identical_groups_give_one(self):
        data = sim.simulate_modular_data(10, 20, 4, 0.1, sim.RngStream(5, 0))
        assert sim.run_combinatorial_trial(data, data) == 1.0

    def test_observed_discrepancy_matches_high_level(self):
        # At sigma = 0 the columns within a module are bit-identical, so
        # their one_minus weights are exact zeros in both groups.
        for sigma in (0.0, 0.1):
            a, b = sim.simulate_modular_pair(10, 40, 4, 5, sigma,
                                             sim.RngStream(9, 0))
            for mode in sim.WEIGHT_MODES:
                d = sim.observed_discrepancy(a, b, mode)
                assert (sim.run_combinatorial_trial(a, b, mode)
                        == float(exact_pvalue(39, d))), (sigma, mode)

    def test_groups_may_differ_in_n(self):
        a = sim.simulate_modular_data(8, 20, 4, 0.1, sim.RngStream(5, 3))
        b = sim.simulate_modular_data(13, 20, 5, 0.1, sim.RngStream(5, 4))
        wa = mst_from_connectivity(pearson_correlation_matrix(a),
                                   WeightMode.ONE_MINUS_SIMILARITY).weights
        wb = mst_from_connectivity(pearson_correlation_matrix(b),
                                   WeightMode.ONE_MINUS_SIMILARITY).weights
        assert (sim.run_combinatorial_trial(a, b)
                == float(compare_msts(wa, wb)[1]))

    def test_constant_column_is_named(self):
        # 0.1 is not a binary fraction, so this column's std is 1.4e-17.
        rng = np.random.default_rng(34)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 4))
        b[:, 1] = 0.1
        with pytest.raises(ValidationError,
                           match="column 1 is constant in group B"):
            sim.run_combinatorial_trial(DataMatrix(a), DataMatrix(b))


class TestPermutationTest:
    def test_permutation_count(self):
        assert sim.permutation_count(0.001, 10) == 184
        assert sim.permutation_count(0.005, 10) == 923
        assert sim.permutation_count(0.01, 10) == 1847
        assert sim.permutation_count(1e-9, 10) == 1

    def test_cap_with_warning(self):
        a = sim.simulate_modular_data(3, 6, 2, 0.1, sim.RngStream(8, 0))
        b = sim.simulate_modular_data(3, 6, 3, 0.1, sim.RngStream(8, 1))
        with pytest.warns(UserWarning, match="capping"):
            pv = sim.permutation_test(a, b, 10 ** 6, sim.RngStream(8, 2))
        assert 0.0 <= pv <= 1.0

    def test_exhaustive_is_reproducible_and_exact(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 3))
        b = sim.simulate_modular_data(4, 6, 3, 0.1, sim.RngStream(8, 4))
        cap = math.comb(8, 4)
        p1 = sim.permutation_test(a, b, cap, sim.RngStream(8, 5), exhaustive=True)
        p2 = sim.permutation_test(a, b, cap, sim.RngStream(99, 6), exhaustive=True)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0

    def test_identical_groups_give_one(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 7))
        pv = sim.permutation_test(a, a, 50, sim.RngStream(8, 8))
        assert pv == 1.0

    def test_add_one_correction(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 9))
        b = sim.simulate_modular_data(4, 6, 3, 0.1, sim.RngStream(8, 10))
        plain = sim.permutation_test(a, b, 40, sim.RngStream(8, 11))
        corrected = sim.permutation_test(a, b, 40, sim.RngStream(8, 11), add_one=True)
        assert corrected == pytest.approx((plain * 40 + 1) / 41)

    def test_constant_column_in_a_relabeling_is_named(self):
        # Column 0 is not constant in either observed group, but the split
        # {0, 1, 5} | {2, 3, 4} makes it constant in both.
        rng = np.random.default_rng(33)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        a[:, 0] = [0.0, 0.0, 1.0]
        b[:, 0] = [1.0, 1.0, 0.0]
        with pytest.raises(ValidationError,
                           match="relabeling 3: column 0 is constant in group A"):
            sim.permutation_test(DataMatrix(a), DataMatrix(b), 20,
                                 sim.RngStream(8, 17), exhaustive=True)

    def test_relabelings_are_the_per_row_permutation_stream(self, monkeypatch):
        # The sampled relabelings are the rows that rng.permutation(2n),
        # called once per relabeling, draws from the test's stream.
        a = sim.simulate_modular_data(5, 6, 2, 0.1, sim.RngStream(8, 21))
        b = sim.simulate_modular_data(5, 6, 3, 0.1, sim.RngStream(8, 22))
        seen = []
        null = sim._kernels.permutation_null

        def record(pooled, perms, one_minus):
            seen.append(perms.copy())
            return null(pooled, perms, one_minus)

        monkeypatch.setattr(sim._kernels, "permutation_null", record)
        sim.permutation_test(a, b, 37, sim.RngStream(8, 23))
        rng = sim.RngStream(8, 23).generator()
        want = np.array([rng.permutation(10) for _ in range(37)])
        assert seen[0].dtype == np.int64
        assert np.array_equal(seen[0], want)

    def test_unequal_n_rejected(self):
        # The exact trial takes groups of any n; relabeling needs equal n.
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 18))
        b = sim.simulate_modular_data(5, 6, 3, 0.1, sim.RngStream(8, 19))
        with pytest.raises(ValidationError, match="equal n, got 4 and 5"):
            sim.permutation_test(a, b, 20, sim.RngStream(8, 20))

    def test_too_few_permutations_rejected(self):
        a = sim.simulate_modular_data(3, 6, 2, 0.1, sim.RngStream(8, 15))
        with pytest.raises(ValidationError):
            sim.permutation_test(a, a, 0, sim.RngStream(8, 16))


class TestExperiment:
    CFG = dict(seed=11, n=6, p=12, sigma=0.1, replications=3,
               permutation_fractions=(0.05,), pairings=((0, 0), (3, 4)))

    def test_report_shape_and_ranges(self):
        report = sim.run_experiment(sim.SimulationConfig(**self.CFG))
        assert set(report.pvalues) == {"0 vs 0", "3 vs 4"}
        for pairing in report.pvalues:
            for method in ("combinatorial", "permute_5%"):
                vals = report.pvalues[pairing][method]
                assert len(vals) == 3
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert 0.0 <= report.mean(pairing, method) <= 1.0
                assert report.std(pairing, method) >= 0.0

    def test_deterministic_json(self):
        cfg = sim.SimulationConfig(**self.CFG)
        r1 = sim.run_experiment(cfg)
        r2 = sim.run_experiment(cfg)
        assert r1.to_json_text() == r2.to_json_text()

    def test_cells_match_the_public_trial_functions(self):
        # run_experiment computes each trial's D once; the public functions,
        # which compute it per call, give the same p-values on the same
        # streams.
        cfg = sim.SimulationConfig(**{**self.CFG, "permutation_fractions": (0.05, 0.1)})
        report = sim.run_experiment(cfg)
        for g, (ka, kb) in enumerate(cfg.pairings):
            cell = report.pvalues[f"{ka} vs {kb}"]
            for r in range(cfg.replications):
                base = (g * cfg.replications + r) * 3
                a, b = sim.simulate_modular_pair(cfg.n, cfg.p, ka, kb, cfg.sigma,
                                                 sim.RngStream(cfg.seed, base))
                assert cell["combinatorial"][r] == sim.run_combinatorial_trial(
                    a, b, cfg.weight_mode)
                for fi, frac in enumerate(cfg.permutation_fractions):
                    assert cell[f"permute_{frac * 100:g}%"][r] == sim.permutation_test(
                        a, b, sim.permutation_count(frac, cfg.n),
                        sim.RngStream(cfg.seed, base + 1 + fi),
                        weight_mode=cfg.weight_mode)

    def test_single_replication_zero_std(self):
        cfg = sim.SimulationConfig(**{**self.CFG, "replications": 1})
        report = sim.run_experiment(cfg)
        assert report.std("0 vs 0", "combinatorial") == 0.0

    def test_text_table_mentions_all_cells(self):
        report = sim.run_experiment(sim.SimulationConfig(**self.CFG))
        table = report.to_text_table()
        assert "0 vs 0" in table and "3 vs 4" in table
        assert "combinatorial" in table and "permute_5%" in table

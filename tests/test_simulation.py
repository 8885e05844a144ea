import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from combinf import simulation as sim
from combinf.connectivity import DataMatrix, pearson_correlation_matrix
from combinf.errors import ValidationError
from combinf.exact import discrepancy, exact_pvalue
from combinf.mst import WeightMode, compare_msts, mst_from_connectivity


def record_nulls(monkeypatch):
    """List that collects (a copy of the relabelings, the null) for each
    permutation_null call."""
    seen = []
    null = sim._kernels.permutation_null

    def record(pooled, perms, mode):
        seen.append((perms.copy(), null(pooled, perms, mode)))
        return seen[-1][1]

    monkeypatch.setattr(sim._kernels, "permutation_null", record)
    return seen


def library_discrepancy(a, b, mode):
    """D of two groups by the library route: pearson_correlation_matrix ->
    mst_from_connectivity -> exact.discrepancy, which shares with the
    permutation null only the correlations and the discrepancy kernel."""
    wa, wb = (mst_from_connectivity(pearson_correlation_matrix(g),
                                    mode).weights for g in (a, b))
    return discrepancy(wa, wb).d


# The config file's two modes, named as in the file.
CONFIG_MODES = pytest.mark.parametrize(
    "mode", list(sim._WEIGHT_MODES.values()), ids=list(sim._WEIGHT_MODES))
ONE_MINUS = WeightMode.ONE_MINUS_SIMILARITY


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

    @pytest.mark.parametrize("value", ["one_minus_similarity", "distance",
                                       "other"])
    def test_weight_mode_takes_the_file_names(self, value):
        # The file names the modes its own way; WeightMode values are not
        # among its names.
        with pytest.raises(ValidationError) as err:
            sim.SimulationConfig(seed=1, weight_mode=value)
        assert str(err.value) == ("/weight_mode: must be one of "
                                  f"('correlation', 'one_minus'), got {value!r}")

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

    def test_sigma_bound(self):
        # noise * sigma stays finite for every normal draw up to 2**1000
        sim.SimulationConfig(seed=1, sigma=2.0 ** 1000)
        for sigma in (np.nextafter(2.0 ** 1000, math.inf), 1.7e308, math.inf,
                      math.nan, -1e-300):
            with pytest.raises(ValidationError, match="/sigma:"):
                sim.SimulationConfig(seed=1, sigma=sigma)

    def test_no_pairings(self):
        # A report with no cells has no table to print.
        with pytest.raises(ValidationError, match="/pairings: need at least one"):
            sim.SimulationConfig(seed=1, pairings=())

    def test_zero_replications(self):
        with pytest.raises(ValidationError, match="/replications"):
            sim.SimulationConfig(seed=1, replications=0)

    @pytest.mark.parametrize("kwargs, text", [
        ({"seed": True}, "/seed: must be an integer, got True"),
        ({"replications": 1.5}, "/replications: must be an integer, got 1.5"),
        ({"n": 10.0}, "/n: must be an integer, got 10.0"),
        ({"permutation_fractions": 0.5},
         "/permutation_fractions: must be a list of numbers, got 0.5"),
        ({"pairings": ((0, 0), (4, "5"))},
         "/pairings: must be a list of [integer, integer] pairs, got "
         "((0, 0), (4, '5'))"),
    ], ids=["bool_seed", "float_replications", "float_n", "scalar_fractions",
            "string_module_count"])
    def test_library_values_are_type_checked(self, kwargs, text):
        # the config file's checks serve a library caller too
        with pytest.raises(ValidationError) as err:
            sim.SimulationConfig(**{"seed": 1, **kwargs})
        assert str(err.value) == text

    @pytest.mark.parametrize("doc, text", [
        ({"seed": 1, "p": "x", "bogus": 2}, "/bogus: unknown config key"),
        ({"seed": 1, "p": "x", "n": "y"}, "/n: must be an integer, got 'y'"),
        ({"seed": -1, "weight_mode": 3}, "/weight_mode: must be a string, got 3"),
    ], ids=["unknown_key_first", "field_order", "type_before_range"])
    def test_first_of_several_faults(self, doc, text):
        # An unknown key is reported first, then the first value of the
        # wrong type in field order, then the first value out of range.
        with pytest.raises(ValidationError) as err:
            sim.SimulationConfig.from_json(doc)
        assert str(err.value) == text

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


@pytest.mark.parametrize("entry", ["mst_from_connectivity",
                                   "run_combinatorial_trial",
                                   "permutation_test"])
@pytest.mark.parametrize("value", ["bogus", "correlation", "one-minus"])
def test_a_mode_that_is_no_weight_mode_is_a_validation_error(entry, value):
    # The config file's and the CLI's names are not WeightMode values.
    a, b = sim.simulate_modular_pair(3, 4, 2, 2, 0.1, sim.RngStream(8, 31))
    call = {"mst_from_connectivity": lambda: mst_from_connectivity(
                pearson_correlation_matrix(a), value),
            "run_combinatorial_trial": lambda: sim.run_combinatorial_trial(
                a, b, value),
            "permutation_test": lambda: sim.permutation_test(
                a, b, sim.all_splits(3), value)}[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == (
        "weight mode must be one of ('distance', 'one_minus_similarity', "
        f"'max_tree'), got {value!r}")


class TestCombinatorialTrial:
    def test_identical_groups_give_one(self):
        data = sim.simulate_modular_data(10, 20, 4, 0.1, sim.RngStream(5, 0))
        assert sim.run_combinatorial_trial(data, data, ONE_MINUS) == 1.0

    def test_trial_matches_the_library_route(self):
        # At sigma = 0 the columns within a module are bit-identical, so
        # their one_minus weights are exact zeros in both groups.
        for sigma in (0.0, 0.1):
            a, b = sim.simulate_modular_pair(10, 40, 4, 5, sigma,
                                             sim.RngStream(9, 0))
            for mode in WeightMode:
                d = library_discrepancy(a, b, mode)
                assert (sim.run_combinatorial_trial(a, b, mode)
                        == float(exact_pvalue(39, d))), (sigma, mode)

    def test_groups_may_differ_in_n(self):
        a = sim.simulate_modular_data(8, 20, 4, 0.1, sim.RngStream(5, 3))
        b = sim.simulate_modular_data(13, 20, 5, 0.1, sim.RngStream(5, 4))
        wa = mst_from_connectivity(pearson_correlation_matrix(a),
                                   WeightMode.ONE_MINUS_SIMILARITY).weights
        wb = mst_from_connectivity(pearson_correlation_matrix(b),
                                   WeightMode.ONE_MINUS_SIMILARITY).weights
        assert (sim.run_combinatorial_trial(a, b, ONE_MINUS)
                == float(compare_msts(wa, wb)[1]))

    def test_constant_column_is_named(self):
        # 0.1 is not a binary fraction, so this column's std is 1.4e-17.
        rng = np.random.default_rng(34)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 4))
        b[:, 1] = 0.1
        with pytest.raises(ValidationError,
                           match="column 1 is constant in group B"):
            sim.run_combinatorial_trial(DataMatrix(a), DataMatrix(b),
                                        ONE_MINUS)


def listing(n, count, stream):
    """The listing run_experiment builds for count relabelings: every split
    from C(2n, n) on, else count drawn from stream."""
    if count >= math.comb(2 * n, n):
        return sim.all_splits(n)
    return sim.sampled_relabelings(n, count, stream)


class TestPermutationTest:
    def test_permutation_count(self):
        assert sim.permutation_count(0.001, 10) == 184
        assert sim.permutation_count(0.005, 10) == 923
        assert sim.permutation_count(0.01, 10) == 1847
        assert sim.permutation_count(1e-9, 10) == 1

    def test_request_past_every_split_lists_them_all(self, monkeypatch):
        # D is symmetric in the two groups: after the identity, the C(6, 3)
        # / 2 splits with row 0 in group A, once each, in lexicographic
        # order, the first being the identity again.
        perms = sim.all_splits(3)
        assert perms.dtype == np.int64 and perms.shape == (11, 6)
        assert np.array_equal(perms[0], np.arange(6))
        assert np.array_equal(perms[1], np.arange(6))
        assert (np.sort(perms, axis=1) == np.arange(6)).all()
        splits = [set(row[:3]) for row in perms[1:]]
        assert len(splits) == 10 and all(0 in split for split in splits)
        assert splits == sorted(splits, key=sorted)
        assert len({frozenset(split) for split in splits}) == 10
        # run_experiment lists every split from fraction 1 on, and draws
        # C(6, 3) - 1 = 19 relabelings at fraction 0.97
        seen = record_nulls(monkeypatch)
        cfg = sim.SimulationConfig(seed=8, n=3, p=6, replications=1,
                                   permutation_fractions=(1.0, 0.97),
                                   pairings=((2, 3),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pv = sim.run_experiment(cfg).pvalues["2 vs 3"]["permute_100%"][0]
        assert np.array_equal(seen[0][0], perms)
        assert seen[1][0].shape == (20, 6)
        assert 0.0 <= pv <= 1.0

    def test_every_split_is_reproducible_and_exact(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 3))
        b = sim.simulate_modular_data(4, 6, 3, 0.1, sim.RngStream(8, 4))
        assert np.array_equal(sim.all_splits(4), sim.all_splits(4))
        p1 = sim.permutation_test(a, b, sim.all_splits(4), ONE_MINUS)
        p2 = sim.permutation_test(a, b, sim.all_splits(4), ONE_MINUS)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0
        # add_one counts the C(8, 4) / 2 listed splits
        assert sim.permutation_test(a, b, sim.all_splits(4), ONE_MINUS,
                                    add_one=True) == (p1 * 35 + 1) / 36

    @pytest.mark.parametrize("n", [3, 4, 5])
    @CONFIG_MODES
    def test_every_split_matches_the_full_listing(self, n, mode):
        # Oracle: each of the C(2n, n) splits of the pooled rows, both halves
        # of the symmetric null, scored alone by the library route.
        a, b = sim.simulate_modular_pair(n, 6, 2, 3, 0.1, sim.RngStream(8, n))
        pooled = np.vstack([a.values, b.values])
        d_obs = library_discrepancy(a, b, mode)
        hits = 0
        for sel in combinations(range(2 * n), n):
            rest = [i for i in range(2 * n) if i not in sel]
            hits += library_discrepancy(
                DataMatrix(pooled[list(sel)]), DataMatrix(pooled[rest]),
                mode) >= d_obs
        cap = math.comb(2 * n, n)
        for count, stream in ((cap, sim.RngStream(1, 0)),
                              (cap + 5, sim.RngStream(2, 7))):
            assert sim.permutation_test(a, b, listing(n, count, stream),
                                        mode) == hits / cap

    def test_identical_groups_give_one(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 7))
        pv = sim.permutation_test(
            a, a, sim.sampled_relabelings(4, 50, sim.RngStream(8, 8)),
            ONE_MINUS)
        assert pv == 1.0

    def test_add_one_correction(self):
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 9))
        b = sim.simulate_modular_data(4, 6, 3, 0.1, sim.RngStream(8, 10))
        perms = sim.sampled_relabelings(4, 40, sim.RngStream(8, 11))
        plain = sim.permutation_test(a, b, perms, ONE_MINUS)
        corrected = sim.permutation_test(a, b, perms, ONE_MINUS, add_one=True)
        assert corrected == pytest.approx((plain * 40 + 1) / 41)

    @pytest.mark.parametrize("k", [0, 2])
    @CONFIG_MODES
    def test_add_one_holds_alpha_under_an_exchangeable_null(self, mode, k):
        # Both groups are independent draws of one model, so their 2n rows
        # are exchangeable and (hits + 1) / (N + 1) is a valid p-value
        # (Phipson & Smyth 2010): P(p <= alpha) <= alpha.
        alpha, trials = 0.05, 400
        rejected = 0
        for t in range(trials):
            a, b = (sim.simulate_modular_data(6, 8, k, 0.1,
                                              sim.RngStream(61, 3 * t + s))
                    for s in (0, 1))
            rejected += sim.permutation_test(
                a, b, sim.sampled_relabelings(6, 99, sim.RngStream(61, 3 * t + 2)),
                mode, add_one=True) <= alpha
        assert rejected / trials <= alpha + 3 * math.sqrt(
            alpha * (1 - alpha) / trials)

    def test_constant_column_in_a_relabeling_is_named(self):
        # Column 0 is not constant in either observed group, but the split
        # {0, 1, 5} | {2, 3, 4}, the fourth listed split and relabeling 4
        # after the identity, makes it constant in both.
        rng = np.random.default_rng(33)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        a[:, 0] = [0.0, 0.0, 1.0]
        b[:, 0] = [1.0, 1.0, 0.0]
        with pytest.raises(ValidationError,
                           match="relabeling 4: column 0 is constant in group A"):
            sim.permutation_test(DataMatrix(a), DataMatrix(b),
                                 sim.all_splits(3), ONE_MINUS)

    @pytest.mark.parametrize("group", ["A", "B"])
    @pytest.mark.parametrize("count", [5, 20])
    def test_constant_column_in_an_observed_group_is_relabeling_0(self, group,
                                                                   count):
        # The observed split is relabeling 0, drawn or listed, so its
        # constant column is named before any other relabeling's.
        rng = np.random.default_rng(35)
        groups = {"A": rng.standard_normal((3, 5)),
                  "B": rng.standard_normal((3, 5))}
        groups[group][:, 2] = 0.1
        with pytest.raises(ValidationError, match=(
                f"relabeling 0: column 2 is constant in group {group}")):
            sim.permutation_test(DataMatrix(groups["A"]),
                                 DataMatrix(groups["B"]),
                                 listing(3, count, sim.RngStream(8, 24)),
                                 ONE_MINUS)

    def test_relabelings_are_the_per_row_permutation_stream(self, monkeypatch):
        # Relabeling 0 is the observed split; the drawn relabelings after it
        # are the rows that rng.permutation(2n), called once per relabeling,
        # draws from the stream, and permutation_test scores them as given.
        a = sim.simulate_modular_data(5, 6, 2, 0.1, sim.RngStream(8, 21))
        b = sim.simulate_modular_data(5, 6, 3, 0.1, sim.RngStream(8, 22))
        perms = sim.sampled_relabelings(5, 37, sim.RngStream(8, 23))
        rng = sim.RngStream(8, 23).generator()
        want = np.array([rng.permutation(10) for _ in range(37)])
        assert perms.dtype == np.int64
        assert np.array_equal(perms[0], np.arange(10))
        assert np.array_equal(perms[1:], want)
        seen = record_nulls(monkeypatch)
        sim.permutation_test(a, b, perms, ONE_MINUS)
        assert np.array_equal(seen[0][0], perms)

    def test_observed_split_is_scored_as_the_library_route(self, monkeypatch):
        a, b = sim.simulate_modular_pair(6, 12, 3, 4, 0.1, sim.RngStream(8, 25))
        seen = record_nulls(monkeypatch)
        for mode in WeightMode:
            sim.permutation_test(
                a, b, sim.sampled_relabelings(6, 30, sim.RngStream(8, 26)), mode)
            assert seen[-1][1][0] == library_discrepancy(a, b, mode)

    def test_unequal_n_rejected(self):
        # The exact trial takes groups of any n; relabeling needs equal n.
        a = sim.simulate_modular_data(4, 6, 2, 0.1, sim.RngStream(8, 18))
        b = sim.simulate_modular_data(5, 6, 3, 0.1, sim.RngStream(8, 19))
        perms = sim.sampled_relabelings(4, 20, sim.RngStream(8, 20))
        with pytest.raises(ValidationError, match="equal n, got 4 and 5"):
            sim.permutation_test(a, b, perms, ONE_MINUS)
        c = sim.simulate_modular_data(4, 8, 2, 0.1, sim.RngStream(8, 27))
        with pytest.raises(ValidationError, match="node count: 6 vs 8"):
            sim.permutation_test(a, c, perms, ONE_MINUS)

    def test_too_few_permutations_rejected(self):
        with pytest.raises(ValidationError):
            sim.sampled_relabelings(3, 0, sim.RngStream(8, 16))

    @pytest.mark.parametrize("case", [
        "single_row", "wide", "narrow", "float", "row_0_not_identity",
        "repeated_index", "index_past_2n", "negative_index"])
    def test_malformed_listing_rejected(self, case):
        a = sim.simulate_modular_data(3, 6, 2, 0.1, sim.RngStream(8, 28))
        b = sim.simulate_modular_data(3, 6, 3, 0.1, sim.RngStream(8, 29))
        perms = sim.sampled_relabelings(3, 4, sim.RngStream(8, 30))
        # the well-formed listing is scored
        sim.permutation_test(a, b, perms, ONE_MINUS)
        bad = {"single_row": perms[:1],
               "wide": np.hstack([perms, perms[:, :1]]),
               "narrow": perms[:, 1:],
               "float": perms.astype(np.float64),
               "row_0_not_identity": perms[1:]}.get(case, perms.copy())
        if case == "repeated_index":
            bad[2, 3] = bad[2, 4]
        elif case == "index_past_2n":
            bad[3, 0] = 6
        elif case == "negative_index":
            # it would wrap around to 0, the entry it replaces, so an index
            # check alone would take the row for a permutation
            bad[3, 0] = -6
        shape = case in ("single_row", "wide", "narrow", "float")
        with pytest.raises(ValidationError, match=(
                "relabelings must be integers, at least 2 rows of 6" if shape
                else r"each relabeling must permute 0\.\.5, and relabeling 0 "
                     "be the identity")):
            sim.permutation_test(a, b, bad, ONE_MINUS)


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

    def test_calls_the_public_trial_functions(self, monkeypatch):
        # The benchmark's tracer times these two functions by name.
        calls = {"run_combinatorial_trial": 0, "permutation_test": 0}
        for name in calls:
            original = getattr(sim, name)

            def counted(*args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*args, **kw)
            monkeypatch.setattr(sim, name, counted)
        cfg = sim.SimulationConfig(**{**self.CFG, "permutation_fractions": (0.05, 0.1)})
        sim.run_experiment(cfg)
        trials = len(cfg.pairings) * cfg.replications
        assert calls == {"run_combinatorial_trial": trials,
                         "permutation_test": 2 * trials}

    def test_every_split_is_listed_once_a_run(self, monkeypatch):
        # The listing depends on n alone, so the trials of a fraction at or
        # past 1 share one; the fraction below 1 lists none.
        built = []
        real = sim.all_splits
        monkeypatch.setattr(sim, "all_splits",
                            lambda n: built.append(n) or real(n))
        cfg = sim.SimulationConfig(**{**self.CFG, "n": 4,
                                      "permutation_fractions": (0.05, 1.0),
                                      "pairings": ((0, 0),)})
        sim.run_experiment(cfg)
        assert cfg.replications == 3
        assert built == [4]

    def test_cells_match_the_public_trial_functions(self):
        # Each cell is the public function's p-value on the trial's stream
        # indices: data on stream base, fraction fi on stream base + 1 + fi.
        # Fraction 1 lists every split, from no stream.
        cfg = sim.SimulationConfig(
            **{**self.CFG, "permutation_fractions": (0.05, 0.1, 1.0)})
        report = sim.run_experiment(cfg)
        mode = sim._WEIGHT_MODES[cfg.weight_mode]
        for g, (ka, kb) in enumerate(cfg.pairings):
            cell = report.pvalues[f"{ka} vs {kb}"]
            for r in range(cfg.replications):
                base = (g * cfg.replications + r) * 4
                a, b = sim.simulate_modular_pair(cfg.n, cfg.p, ka, kb, cfg.sigma,
                                                 sim.RngStream(cfg.seed, base))
                assert cell["combinatorial"][r] == sim.run_combinatorial_trial(
                    a, b, mode)
                for fi, frac in enumerate(cfg.permutation_fractions):
                    perms = (sim.all_splits(cfg.n) if frac == 1.0
                             else sim.sampled_relabelings(
                                 cfg.n, sim.permutation_count(frac, cfg.n),
                                 sim.RngStream(cfg.seed, base + 1 + fi)))
                    assert cell[f"permute_{frac * 100:g}%"][r] == sim.permutation_test(
                        a, b, perms, mode)

    def test_single_replication_zero_std(self):
        cfg = sim.SimulationConfig(**{**self.CFG, "replications": 1})
        report = sim.run_experiment(cfg)
        assert report.std("0 vs 0", "combinatorial") == 0.0

    def test_text_table_widths(self):
        # Short labels keep the widths 10 and 20; a longer label widens its
        # column to its length and 2 spaces.
        def table(pvalues):
            return sim.ExperimentReport(config=sim.SimulationConfig(seed=1),
                                        pvalues=pvalues).to_text_table()
        assert table({"0 vs 0": {"combinatorial": [0.25, 0.75],
                                 "permute_5%": [0.5]}}) == (
            "pairing   combinatorial       permute_5%          \n"
            + "-" * 50 + "\n"
            "0 vs 0    0.500 +/- 0.354     0.500 +/- 0.000     \n")
        assert table({"100 vs 200": {"combinatorial": [0.463],
                                     "permute_1.23457e-05%": [0.5]}}) == (
            "pairing     combinatorial       permute_1.23457e-05%  \n"
            + "-" * 54 + "\n"
            "100 vs 200  0.463 +/- 0.000     0.500 +/- 0.000       \n")

    def test_text_table_mentions_all_cells(self):
        report = sim.run_experiment(sim.SimulationConfig(**self.CFG))
        table = report.to_text_table()
        assert "0 vs 0" in table and "3 vs 4" in table
        assert "combinatorial" in table and "permute_5%" in table

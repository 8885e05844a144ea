import math
import warnings
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from combinf import exact
from combinf.errors import EnumerationLimitError, ValidationError


def oracle_discrepancy(a, b):
    """Independent check: evaluate |#{a<=t} - #{b<=t}| at every merged value."""
    best = 0
    loc = min(a[0], b[0])
    for t in sorted(set(a) | set(b)):
        gap = abs(sum(x <= t for x in a) - sum(y <= t for y in b))
        if gap > best:
            best, loc = gap, t
    return best, loc


class TestDiscrepancy:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="nonempty"):
            exact.discrepancy(np.array([]), np.array([]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError, match="nondecreasing"):
            exact.discrepancy(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match=r"values\[2\]"):
            exact.discrepancy(np.array([1.0, 2.0, 3.0]),
                              np.array([1.0, 2.0, 1.5]))

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=r"values\[1\]"):
                exact.discrepancy(np.array([0.0, bad, 2.0]),
                                  np.array([0.0, 1.0, 2.0]))

    def test_rejects_two_dimensional(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValidationError, match="1-D"):
            exact.discrepancy(a, a)

    def test_tie_tolerant_path(self):
        res = exact.discrepancy(np.array([1.0, 1.0, 2.0]),
                                np.array([3.0, 4.0, 5.0]))
        assert (res.q, res.d) == (3, 3)
        assert not res.ties_absorbed

    def test_separated_supports(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        res = exact.discrepancy(a, b)
        assert res.d == 3
        assert res.argmax_location == 3.0
        assert not res.ties_absorbed

    def test_interleaved(self):
        a = np.array([1.0, 3.0, 5.0])
        b = np.array([2.0, 4.0, 6.0])
        assert exact.discrepancy(a, b).d == 1

    def test_identical_sequences_absorb_ties(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.warns(exact.TieWarning):
            res = exact.discrepancy(a, a)
        assert res.d == 0
        assert res.ties_absorbed

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            exact.discrepancy(np.array([1.0]), np.array([1.0, 2.0]))

    def test_argmax_attains_d(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = rng.integers(1, 12)
            a = np.sort(rng.standard_normal(q))
            b = np.sort(rng.standard_normal(q))
            res = exact.discrepancy(a, b)
            t = res.argmax_location
            assert abs(bisect_right(a, t) - bisect_right(b, t)) == res.d
            d0, loc0 = oracle_discrepancy(list(a), list(b))
            assert res.d == d0
            assert res.argmax_location == loc0


class TestBandCounts:
    def test_worked_example(self):
        assert exact.count_band_paths(3, 2) == 8

    def test_wide_band_is_unconstrained(self):
        assert exact.count_band_paths(2, 3) == 6

    def test_degenerate_band(self):
        assert exact.count_band_paths(2, 1) == 0

    def test_closed_form_matches_band_dp(self):
        for q in range(1, 61):
            total = math.comb(2 * q, q)
            for d in range(1, q + 2):
                assert (exact.exact_pvalue(q, d)
                        == 1 - Fraction(exact.count_band_paths(q, d), total))
            assert exact.exact_pvalue(q, 0) == 1
            assert exact.exact_pvalue(q, q + 5) == 0


class TestExactPValue:
    def test_worked_example(self):
        pv = exact.exact_pvalue(3, 2)
        assert type(pv) is Fraction
        assert (pv.numerator, pv.denominator) == (3, 5)
        assert float(pv) == 0.6

    def test_two_extreme_paths(self):
        pv = exact.exact_pvalue(3, 3)
        assert float(pv) == 0.1

    def test_d_zero_is_one(self):
        pv = exact.exact_pvalue(9, 0)
        assert (pv.numerator, pv.denominator, float(pv)) == (1, 1, 1.0)

    def test_d_above_q_is_zero(self):
        pv = exact.exact_pvalue(4, 5)
        assert float(pv) == 0.0

    @pytest.mark.parametrize("q", [1, 2, 5, 31, 115, 200])
    def test_boundary_laws(self, q):
        assert exact.exact_pvalue(q, 1) == 1
        assert exact.exact_pvalue(q, q + 1) == 0

    @pytest.mark.parametrize("q", [10, 115])
    def test_monotone_in_d(self, q):
        prev = Fraction(2)
        for d in range(0, q + 2):
            cur = exact.exact_pvalue(q, d)
            assert cur <= prev
            prev = cur

    def test_rationality(self):
        for q in (3, 10, 40):
            for d in range(1, q + 1):
                pv = exact.exact_pvalue(q, d)
                assert 0 < pv.numerator <= pv.denominator

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            exact.exact_pvalue(0, 1)
        with pytest.raises(ValidationError):
            exact.exact_pvalue(3, -1)


class TestBruteForceOracle:
    def test_worked_example(self):
        assert exact.brute_force_pvalue(3, 2) == 0.6

    def test_trivial_cases(self):
        assert exact.brute_force_pvalue(1, 1) == 1.0
        assert exact.brute_force_pvalue(4, 5) == 0.0
        assert exact.brute_force_pvalue(6, 0) == 1.0

    def test_capacity_bound(self):
        with pytest.raises(EnumerationLimitError):
            exact.brute_force_pvalue(13, 2)

    def test_matches_dp_everywhere(self):
        for q in range(1, 9):
            for d in range(0, q + 2):
                dp = float(exact.exact_pvalue(q, d))
                bf = exact.brute_force_pvalue(q, d)
                assert dp == pytest.approx(bf, abs=1e-12)


class TestTransformInvariance:
    def test_strict_monotone_maps_preserve_d(self):
        rng = np.random.default_rng(11)
        maps = [lambda x: 3 * x + 2, np.exp, np.arctan, lambda x: x ** 3]
        for _ in range(100):
            q = rng.integers(1, 15)
            a = np.sort(rng.standard_normal(q))
            b = np.sort(rng.standard_normal(q))
            base = exact.discrepancy(a, b).d
            f = maps[rng.integers(len(maps))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", exact.TieWarning)
                mapped = exact.discrepancy(f(a), f(b)).d
            assert mapped == base

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = rng.integers(1, 15)
            a = np.sort(rng.standard_normal(q))
            b = np.sort(rng.standard_normal(q))
            assert exact.discrepancy(a, b).d == exact.discrepancy(b, a).d

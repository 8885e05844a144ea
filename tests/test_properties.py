"""Property tests: the exact null against its oracles, the exit codes of
`combinf pvalue`, and the production spanning tree against the reference
Kruskal, on inputs drawn by hypothesis.

Examples are few and derandomized, so the suite stays fast and repeatable.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from combinf import cli, exact, mst
from kruskal_reference import kruskal_of_matrix

FEW = settings(max_examples=40, deadline=None, derandomize=True)


@FEW
@given(q=st.integers(1, exact.BRUTE_FORCE_MAX_Q), data=st.data())
def test_exact_pvalue_matches_brute_force(q, data):
    d = data.draw(st.integers(0, q + 1))
    assert math.isclose(exact.exact_pvalue(q, d).real_value,
                        exact.brute_force_pvalue(q, d), rel_tol=1e-12)


@FEW
@given(q=st.integers(1, 40), data=st.data())
def test_exact_pvalue_matches_ks_2samp(q, data):
    # Values on a small grid tie within and across the samples; D_q is q
    # times the two-sample KS statistic, ties absorbed in both.
    sample = st.lists(st.integers(0, 3 * q), min_size=q, max_size=q)
    a = sorted(data.draw(sample))
    b = sorted(data.draw(sample))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", exact.TieWarning)
        d = exact.discrepancy(exact.MonotoneSequence(tuple(a)),
                              exact.MonotoneSequence(tuple(b))).d
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ks = ks_2samp(a, b, method="exact")
    # scipy falls back to the asymptotic series where its recursion fails
    # (e.g. q = 7, d = 1) and says so; those are not exact values.
    assume(not any("Exact calculation unsuccessful" in str(w.message)
                   for w in caught))
    assert d == round(ks.statistic * q)
    assert math.isclose(exact.exact_pvalue(q, d).real_value, ks.pvalue,
                        rel_tol=1e-9)


@FEW
@given(q=st.integers(-3, 400), d=st.integers(-3, 450))
def test_cli_pvalue_exit_codes(q, d):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["pvalue", "--q", str(q), "--d", str(d)])
    assert code in (0, 1)
    assert (code == 0) == (q >= 1 and d >= 0), err.getvalue()
    if code == 0:
        num, den = out.getvalue().split("(exact ")[1].rstrip(")\n").split("/")
        got = Fraction(int(Decimal(num)), int(Decimal(den)))
        if d == 0:
            assert got == 1
        elif d > q:
            assert got == 0
        else:
            assert got == 1 - Fraction(exact.count_band_paths(q, d),
                                       math.comb(2 * q, q))


@FEW
@given(p=st.integers(2, 9), mode=st.sampled_from(mst.WeightMode), data=st.data())
def test_mst_from_connectivity_matches_kruskal(p, mode, data):
    # Halves in [-1, 1]: many ties, and zeros that distance mode leaves out.
    upper = data.draw(st.lists(st.integers(-2, 2), min_size=p * (p - 1) // 2,
                               max_size=p * (p - 1) // 2))
    s = np.zeros((p, p))
    s[np.triu_indices(p, k=1)] = np.array(upper) / 2
    s = s + s.T
    ref = kruskal_of_matrix(s, mode)
    got = mst.mst_from_connectivity(s, mode)
    assert got.tree_edges == ref.tree_edges
    assert got.component_count == ref.component_count

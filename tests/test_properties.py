"""Property tests: the exact null against its oracles, the exit codes of
`combinf pvalue`, the production spanning tree against the reference
Kruskal, the midranks against scipy's rankdata, the twin map against an
edge-by-edge Spearman loop, the matrix CSV reader against float(), and the
exit codes of `combinf compare`, `heritability` and `simulate` on malformed
files, on inputs drawn by hypothesis.

Examples are few and derandomized, so the suite stays fast and repeatable.
"""

import csv
import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import ks_2samp, rankdata

from combinf import cli, connectivity, exact, mst
from combinf.errors import DataError, ValidationError
from combinf.matrixio import read_matrix_csv, write_matrix_csv
from kruskal_reference import in_weight_order, kruskal_of_matrix

FEW = settings(max_examples=40, deadline=None, derandomize=True)


@FEW
@given(q=st.integers(1, exact.BRUTE_FORCE_MAX_Q), data=st.data())
def test_exact_pvalue_matches_brute_force(q, data):
    d = data.draw(st.integers(0, q + 1))
    assert math.isclose(float(exact.exact_pvalue(q, d)),
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
        d = exact.discrepancy(a, b).d
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ks = ks_2samp(a, b, method="exact")
    # scipy falls back to the asymptotic series where its recursion fails
    # (e.g. q = 7, d = 1) and says so; those are not exact values.
    assume(not any("Exact calculation unsuccessful" in str(w.message)
                   for w in caught))
    assert d == round(ks.statistic * q)
    assert math.isclose(float(exact.exact_pvalue(q, d)), ks.pvalue,
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
    assert np.array_equal(got.edges, ref.edges)
    assert np.array_equal(got.weights, ref.weights)
    assert got.component_count == ref.component_count
    assert in_weight_order(got)


@FEW
@given(x=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                elements=st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]),
                                   st.floats(allow_nan=False,
                                             allow_infinity=False))))
def test_midranks_match_rankdata(x):
    # Few distinct values, so columns tie often; single rows included.
    want = rankdata(x, axis=0)
    got = connectivity._midranks(x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _edge_loop_twin_map(cohort, symmetrize):
    """The twin map one edge at a time through spearman_correlation: the
    reference for the columnwise twin_edgewise_correlation."""
    p, labels = cohort.p, cohort.labels
    out, messages = np.eye(p), []
    for i in range(p):
        for j in range(i + 1, p):
            a = np.array([ma.values[i, j] for ma, _ in cohort.pairs])
            b = np.array([mb.values[i, j] for _, mb in cohort.pairs])
            if symmetrize:
                a, b = np.concatenate([a, b]), np.concatenate([b, a])
            if np.all(a == a[0]) or np.all(b == b[0]):
                messages.append(f"edge ({labels[i]}, {labels[j]}) is constant "
                                "across pairs; correlation set to 0")
            else:
                out[i, j] = out[j, i] = connectivity.spearman_correlation(a, b)
    return out, messages


@FEW
@given(m=st.integers(3, 8), p=st.integers(2, 6), symmetrize=st.booleans(),
       data=st.data())
def test_twin_map_matches_edge_loop(m, p, symmetrize, data):
    # Values on a grid of quarters tie often; some edges are made constant
    # on one or both sides.
    edges = p * (p - 1) // 2
    grid = st.lists(st.integers(-4, 4), min_size=m * edges, max_size=m * edges)
    sides = [np.array(data.draw(grid), dtype=float).reshape(m, edges) / 4
             for _ in range(2)]
    constant = data.draw(st.lists(st.sampled_from(["", "a", "b", "ab"]),
                                  min_size=edges, max_size=edges))
    for e, sides_held in enumerate(constant):
        for side, name in zip(sides, "ab"):
            if name in sides_held:
                side[:, e] = side[0, e]
    labels = tuple(f"n{k}" for k in range(p))
    iu = np.triu_indices(p, k=1)

    def matrix(upper):
        values = np.eye(p)
        values[iu] = values.T[iu] = upper
        return connectivity.ConnectivityMatrix(labels, values)

    cohort = connectivity.TwinCohort(tuple(
        (matrix(sides[0][k]), matrix(sides[1][k])) for k in range(m)))
    want, want_messages = _edge_loop_twin_map(cohort, symmetrize)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = connectivity.twin_edgewise_correlation(cohort, symmetrize)
    assert got.values.tobytes() == want.tobytes()
    assert [str(w.message) for w in caught] == want_messages
    assert all(w.category is connectivity.DegenerateEdgeWarning for w in caught)


_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f" {x:.3e}\t"),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: f"{k:_}"),
    st.sampled_from(["1_0", " 2.5 ", "\u0663", "\u0661\u0662.\u0665", "-0.0",
                     "+.5", "5.", "1e-400", "1e400", "nan", "-Infinity"]))
_BAD_TOKENS = st.one_of(
    st.sampled_from(["", " ", "oops", "1,0", "0x10", "1e", "\u00bd", "1__0",
                     "_1", "--1"]),
    st.text(max_size=3))


@FEW
@given(p=st.integers(2, 5), data=st.data())
def test_read_matrix_csv_parses_like_float(p, data):
    # A symmetric matrix of tokens, each cell mirrored, under a label row;
    # sometimes with bad tokens at drawn cells. Rows end in a drawn line
    # terminator, the last one sometimes in none, and blank lines sometimes
    # follow a row.
    tokens = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            tokens[i][j] = tokens[j][i] = data.draw(_FLOAT_TOKENS)
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, p - 1),
                                             st.integers(0, p - 1)), max_size=2)):
        tokens[i][j] = data.draw(_BAD_TOKENS)

    def parses(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    end = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
    blank = data.draw(st.lists(st.booleans(), min_size=p + 1, max_size=p + 1))
    last_end = data.draw(st.booleans())

    def line(row):
        # csv quotes any field with "\r" or "\n" under its "\r\n" terminator
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        return buf.getvalue()[:-2]

    text = "".join(line(row) + end + end * extra for row, extra in
                   zip([[f"n{k}" for k in range(p)], *tokens], blank))
    if not (last_end or blank[-1]):
        text = text[:-len(end)]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        bad = [(r, c, tok) for r, row in enumerate(tokens, 1)
               for c, tok in enumerate(row, 1) if not parses(tok)]
        if bad:
            r, c, tok = bad[0]
            with pytest.raises(DataError) as err:
                read_matrix_csv(path)
            assert str(err.value) == (f"cannot parse {tok!r} as a number at "
                                      f"row {r}, column {c}")
            return
        values = np.array([[float(tok) for tok in row] for row in tokens])
        try:
            want = connectivity.ConnectivityMatrix(
                tuple(f"n{k}" for k in range(p)), values).values
        except ValidationError as invalid:
            with pytest.raises(DataError, match=re.escape(str(invalid))):
                read_matrix_csv(path)
            return
        assert read_matrix_csv(path).values.tobytes() == want.tobytes()


def _run_cli(argv):
    """cli.main's exit code and stdout, output captured; an exception
    escapes and fails the property."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()


def _write(path, doc):
    """doc as JSON; a str or bytes is written as it is."""
    if not isinstance(doc, (str, bytes)):
        doc = json.dumps(doc)
    with open(path, "wb") as fh:
        fh.write(doc.encode() if isinstance(doc, str) else doc)


# Each exit-code property draws a well-formed input and, half the time, one
# fault in it, so that runs end in each of the three exit codes.
_MATRIX_FAULTS = st.one_of(
    st.tuples(st.just("cell"), st.sampled_from(
        ["nan", "inf", "-1e400", "1e308", "", " ", "x", "1,5", "\x00"])),
    st.tuples(st.sampled_from(["short row", "extra row", "one row"]),
              st.none()),
    st.tuples(st.just("labels"), st.lists(st.sampled_from("abcd"),
                                          min_size=1, max_size=5)),
    st.tuples(st.just("text"), st.one_of(st.text(max_size=20),
                                         st.binary(max_size=20))))


def _matrix_text(s, fault):
    rows = [[repr(float(v)) for v in row] for row in s]
    kind, arg = fault
    if kind == "cell":
        rows[0][-1] = arg
    elif kind == "short row":
        rows[-1].pop()
    elif kind == "extra row":
        rows.append(rows[0])
    elif kind == "one row":
        rows = rows[:1]
    elif kind == "labels":
        rows.insert(0, arg)
    elif kind == "text":
        return arg
    return "".join(",".join(row) + "\n" for row in rows)


@FEW
@given(p=st.integers(2, 4), mode=st.sampled_from(["distance", "one-minus",
                                                  "max-tree"]),
       radius=st.sampled_from([None, -1.0, 0.0, 0.5]), outputs=st.booleans(),
       fault=st.one_of(st.none(), st.tuples(st.integers(0, 1),
                                            _MATRIX_FAULTS)),
       data=st.data())
def test_cli_compare_exit_codes(p, mode, radius, outputs, fault, data):
    # Symmetric matrices of halves: ties, and zeros that distance mode
    # leaves out, so forests may be disconnected.
    matrices = []
    for _ in range(2):
        s = np.zeros((p, p))
        s[np.triu_indices(p, k=1)] = data.draw(st.lists(
            st.integers(-2, 2), min_size=p * (p - 1) // 2,
            max_size=p * (p - 1) // 2))
        matrices.append((s + s.T) / 2)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [f"{tmp}/{name}.csv" for name in "AB"]
        for k, (path, s) in enumerate(zip(paths, matrices)):
            _write(path, _matrix_text(
                s, fault[1] if fault and fault[0] == k else (None, None)))
        argv = ["compare", *paths, "--mode", mode]
        if radius is not None:
            argv += ["--localize-center", "0.5", "--localize-radius",
                     str(radius)]
        if outputs:
            argv += ["--svg", f"{tmp}/o.svg", "--csv", f"{tmp}/o.csv"]
        code, out = _run_cli(argv)
    assert code in (0, 1, 2)
    assert (code == 0) == ("p-value = " in out)


_MANIFEST_FAULTS = st.sampled_from([
    ("pairs", 2), ("pairs", "m0.csv"), ("item", {"a": "m0.csv"}),
    ("item", {"a": 1, "b": "m0.csv"}), ("item", {"a": "missing.csv",
                                                 "b": "m0.csv"}),
    ("item", {"a": "bad.csv", "b": "m0.csv"}),
    ("item", {"a": "short.csv", "b": "short.csv"}),
    ("labels_from", "short.csv"), ("labels_from", "missing.csv"),
    ("labels_from", 3), ("doc", "{"), ("doc", []), ("doc", {"pair": []}),
    ("doc", b"\xff{}")])


def _manifest(pairs, fault):
    doc = {"pairs": [{"a": f"m{a}.csv", "b": f"m{b}.csv"} for a, b in pairs]}
    kind, arg = fault
    if kind == "pairs":
        doc["pairs"] = doc["pairs"][:arg] if isinstance(arg, int) else arg
    elif kind == "item":
        doc["pairs"][0] = arg
    elif kind == "labels_from":
        doc["labels_from"] = arg
    elif kind == "doc":
        return arg
    return doc


@FEW
@given(grids=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      min_size=4, max_size=4),
       pairs=st.lists(st.lists(st.tuples(st.integers(0, 3),
                                         st.integers(0, 3)),
                               min_size=3, max_size=5),
                      min_size=2, max_size=2),
       symmetrize=st.booleans(),
       fault=st.one_of(st.none(), st.tuples(st.integers(0, 1),
                                            _MANIFEST_FAULTS)))
def test_cli_heritability_exit_codes(grids, pairs, symmetrize, fault):
    # Four 3-node matrices whose edges take few values, so twin edges tie
    # and are often constant; a file with a bad cell; and a 2-node file
    # whose labels do not fit the others.
    with tempfile.TemporaryDirectory() as tmp:
        iu = np.triu_indices(3, k=1)
        for k, grid in enumerate(grids):
            values = np.eye(3)
            values[iu] = values.T[iu] = np.array(grid) / 2
            write_matrix_csv(connectivity.ConnectivityMatrix(
                ("x", "y", "z"), values), f"{tmp}/m{k}.csv")
        _write(f"{tmp}/bad.csv", "x,y,z\n1,0,oops\n0,1,0\n0,0,1\n")
        _write(f"{tmp}/short.csv", "x,y\n1,0\n0,1\n")
        for k, name in enumerate(("mz", "dz")):
            _write(f"{tmp}/{name}.json", _manifest(
                pairs[k], fault[1] if fault and fault[0] == k else (None, None)))
        argv = ["heritability", "--mz", f"{tmp}/mz.json", "--dz",
                f"{tmp}/dz.json", "--out", f"{tmp}/out"]
        code, out = _run_cli(argv + ["--symmetrize"] * symmetrize)
    assert code in (0, 1, 2)
    assert (code == 0) == ("p-value = " in out)


# Small runs: the defaults of the sizing keys describe the full benchmark
# table, so every config gives them.
_CONFIGS = st.fixed_dictionaries(
    {"seed": st.integers(0, 3), "n": st.integers(2, 5),
     "p": st.sampled_from([2, 4, 6]), "replications": st.integers(1, 2),
     "permutation_fractions": st.lists(st.sampled_from([0.01, 0.5, 1]),
                                       max_size=2),
     "pairings": st.lists(st.lists(st.integers(0, 2), min_size=2,
                                   max_size=2), min_size=1, max_size=2)},
    optional={"sigma": st.sampled_from([0, 0.1, 2]),
              "weight_mode": st.sampled_from(["correlation", "one_minus"])})
_CONFIG_FAULTS = st.one_of(
    st.tuples(st.sampled_from(["seed", "n", "p", "replications"]),
              st.sampled_from([-1, 0, 1.5, "1", None, True])),
    st.tuples(st.just("sigma"), st.sampled_from(
        [-1.0, 1e300, float("nan"), float("inf"), "0.1"])),
    st.tuples(st.just("permutation_fractions"), st.sampled_from(
        [[-0.1], [0], [1.5], 0.5, ["0.5"], [float("nan")]])),
    st.tuples(st.just("pairings"), st.sampled_from(
        [[], [[1]], [1, 2], [[1.0, 2]], [[-1, 0]], [[5, 0]], "0 vs 0"])),
    st.tuples(st.sampled_from(["weight_mode", "extra"]),
              st.sampled_from(["other", 1])),
    st.tuples(st.just("doc"), st.sampled_from(
        ["{", "[]", "1", '{"n": 3}', b"\xff{}"])))


@FEW
@given(config=_CONFIGS, fault=st.one_of(st.none(), _CONFIG_FAULTS),
       out_is_file=st.booleans())
def test_cli_simulate_exit_codes(config, fault, out_is_file):
    if fault is not None:
        key, value = fault
        config = value if key == "doc" else {**config, key: value}
    with tempfile.TemporaryDirectory() as tmp:
        _write(f"{tmp}/config.json", config)
        out_dir = f"{tmp}/config.json" if out_is_file else f"{tmp}/out"
        code, out = _run_cli(["simulate", "--config", f"{tmp}/config.json",
                              "--out", out_dir])
    assert code in (0, 1, 2)
    assert (code == 0) == out.startswith("pairing")

"""Property tests: the exact null against its oracles, the discrepancy
kernel's tie flag against np.isin, the exit codes of `combinf pvalue`, the production spanning tree against the reference
Kruskal, the midranks against scipy's rankdata, the twin map against an
edge-by-edge Spearman loop, the matrix CSV reader against float() and its
upper-triangle parse against the csv route, and the exit codes of
`combinf compare`, `heritability` and `simulate` on malformed files, on
inputs drawn by hypothesis.

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
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import ks_2samp, rankdata, spearmanr

from combinf import _kernels, cli, connectivity, exact, matrixio, mst
from combinf.errors import DataError, ValidationError
from combinf.matrixio import read_matrix_csv, write_matrix_csv
from exact_reference import BRUTE_FORCE_MAX_Q, band_pvalue, brute_force_pvalue
from kruskal_reference import in_weight_order, kruskal_of_matrix

FEW = settings(max_examples=40, deadline=None, derandomize=True)


@FEW
@given(q=st.integers(1, BRUTE_FORCE_MAX_Q), data=st.data())
def test_exact_pvalue_matches_brute_force(q, data):
    d = data.draw(st.integers(0, q + 1))
    assert exact.exact_pvalue(q, d) == brute_force_pvalue(q, d)


@FEW
@given(q=st.integers(1, 40), data=st.data())
def test_exact_pvalue_matches_ks_2samp(q, data):
    # Values on a small grid tie within and across the samples; D_q is q
    # times the two-sample KS statistic, ties absorbed in both.
    sample = st.lists(st.integers(0, 3 * q), min_size=q, max_size=q)
    a = sorted(data.draw(sample))
    b = sorted(data.draw(sample))
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


# Halves in [-1, 1], and -0.0, which equals 0.0: ties within and across
# samples, and equal values of either sign.
_TIED_VALUES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@FEW
@given(m=st.integers(1, 4), q=st.integers(1, 8), data=st.data())
def test_kernel_tie_flag_matches_isin(m, q, data):
    row = st.lists(_TIED_VALUES, min_size=q, max_size=q).map(sorted)
    wa, wb = (np.array([data.draw(row) for _ in range(m)]) for _ in "ab")
    _, _, tied = _kernels.discrepancies(wa, wb)
    assert tied.dtype == bool
    assert tied.tolist() == [bool(np.isin(a, b).any()) for a, b in zip(wa, wb)]


@FEW
@given(q=st.integers(1, 10), data=st.data())
def test_discrepancy_does_not_depend_on_input_order(q, data):
    sample = st.lists(_TIED_VALUES, min_size=q, max_size=q)
    a, b = data.draw(sample), data.draw(sample)
    want = exact.discrepancy(sorted(a), sorted(b))
    got = exact.discrepancy(data.draw(st.permutations(a)),
                            data.draw(st.permutations(b)))
    assert (got.d, got.q, got.ties_absorbed) == (want.d, want.q,
                                                 want.ties_absorbed)
    assert got.argmax_location == want.argmax_location


@FEW
@given(m=st.integers(1, 4), q=st.integers(1, 8), data=st.data())
def test_kernel_discrepancies_do_not_depend_on_row_order(m, q, data):
    row = st.lists(_TIED_VALUES, min_size=q, max_size=q)
    wa, wb = (np.array([data.draw(row) for _ in range(m)]) for _ in "ab")
    d, at, tied = _kernels.discrepancies(np.sort(wa, axis=1),
                                         np.sort(wb, axis=1))
    shuffled = [np.array([data.draw(st.permutations(r)) for r in w])
                for w in (wa, wb)]
    got_d, got_at, got_tied = _kernels.discrepancies(*shuffled)
    assert got_d.tolist() == d.tolist()
    assert got_at.tolist() == at.tolist()
    assert got_tied.tolist() == tied.tolist()


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
            assert got == band_pvalue(q, d)


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
    """The twin map one edge at a time, each a one-column _midrank_pearson:
    the reference for the columnwise twin_edgewise_correlation."""
    p, labels = cohort.p, cohort.labels
    out, degenerate = np.eye(p), []
    for i in range(p):
        for j in range(i + 1, p):
            a = np.array([ma.values[i, j] for ma, _ in cohort.pairs])
            b = np.array([mb.values[i, j] for _, mb in cohort.pairs])
            if symmetrize:
                a, b = np.concatenate([a, b]), np.concatenate([b, a])
            if np.all(a == a[0]) or np.all(b == b[0]):
                degenerate.append((labels[i], labels[j]))
            else:
                out[i, j] = out[j, i] = connectivity._midrank_pearson(
                    a[:, None], b[:, None])[0]
    return out, tuple(degenerate)


def _quarter_grid_cohort(m, p, data):
    """A cohort of m twin pairs of p x p matrices whose edge values lie on a
    grid of quarters, so they tie often; some edges are made constant on one
    or both sides."""
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

    return connectivity.TwinCohort(tuple(
        (matrix(sides[0][k]), matrix(sides[1][k])) for k in range(m)))


@FEW
@given(m=st.integers(3, 8), p=st.integers(2, 6), symmetrize=st.booleans(),
       data=st.data())
def test_twin_map_matches_edge_loop(m, p, symmetrize, data):
    cohort = _quarter_grid_cohort(m, p, data)
    want, want_degenerate = _edge_loop_twin_map(cohort, symmetrize)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, degenerate = connectivity.twin_edgewise_correlation(cohort,
                                                                 symmetrize)
    assert got.values.tobytes() == want.tobytes()
    assert degenerate == want_degenerate
    assert not caught


@FEW
@given(m=st.integers(3, 8), p=st.integers(2, 6), symmetrize=st.booleans(),
       data=st.data())
def test_twin_map_matches_scipy_spearmanr(m, p, symmetrize, data):
    # scipy's midrank Spearman shares no code with the twin map.
    cohort = _quarter_grid_cohort(m, p, data)
    got = connectivity.twin_edgewise_correlation(
        cohort, symmetrize).correlation.values
    for i, j in zip(*np.triu_indices(p, k=1)):
        a = np.array([ma.values[i, j] for ma, _ in cohort.pairs])
        b = np.array([mb.values[i, j] for _, mb in cohort.pairs])
        if symmetrize:
            a, b = np.concatenate([a, b]), np.concatenate([b, a])
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            assert got[i, j] == 0.0
        else:
            assert abs(got[i, j] - spearmanr(a, b).statistic) <= 1e-12


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
            assert str(err.value) == (f"{path}: cannot parse {tok!r} as a "
                                      f"number at row {r}, column {c}")
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


# Spellings of one value each; the last group does not parse.
_SPELLINGS = [["0.5", "0.50", "5e-1", "+0.5"], ["0", "-0.0", "0.0"],
              ["x", "1e"]]


def _read_outcome(path):
    """The labels and value bytes read from path, or the DataError text."""
    try:
        matrix = read_matrix_csv(path)
    except DataError as err:
        return str(err)
    return matrix.labels, matrix.values.tobytes()


@FEW
@given(p=st.integers(1, 5), header=st.booleans(),
       end=st.sampled_from(["\n", "\r\n"]), last_end=st.booleans(),
       data=st.data())
def test_upper_triangle_parse_reads_as_csv_route(p, header, end, last_end,
                                                 data):
    # Each cell and its mirror image spell one value, or now and then two,
    # each in one of its spellings. The C route reads the upper triangle
    # alone exactly when every mirrored pair is spelled alike and the last
    # line is ended; it reads as the csv route does either way.
    tokens = [[""] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            group = data.draw(st.sampled_from(_SPELLINGS))
            mirror = data.draw(st.sampled_from([group] * 4 + _SPELLINGS))
            tokens[i][j] = data.draw(st.sampled_from(group))
            if j > i:
                tokens[j][i] = data.draw(st.sampled_from(mirror))
    lines = [",".join(row) for row in tokens]
    # a first row with a token float() rejects is a header
    if header or not set(tokens[0]).isdisjoint(_SPELLINGS[-1]):
        lines.insert(0, ",".join(f"n{k}" for k in range(p)))
    text = end.join(lines) + (end if last_end else "")
    upper = []
    real = matrixio._upper_triangle_lines

    def spy(*args):
        lines = real(*args)
        upper.append(lines is not None)
        return lines

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with patch.object(matrixio, "_upper_triangle_lines", spy):
            got = _read_outcome(path)
        with patch.object(matrixio, "_loadtxt_body", lambda *args: None):
            assert _read_outcome(path) == got
    mirrored = all(tokens[i][j] == tokens[j][i]
                   for i in range(p) for j in range(i))
    assert upper == [mirrored and last_end]


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
              st.sampled_from(["other", 1, "one_minus_similarity"])),
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

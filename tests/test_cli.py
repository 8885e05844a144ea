import csv
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import combinf
from combinf import cli, matrixio
from combinf.connectivity import ConnectivityMatrix, DataMatrix, pearson_correlation_matrix
from combinf.errors import DataError
from combinf.matrixio import CohortManifest, read_matrix_csv, write_matrix_csv


def random_corr(rng, labels, n=15):
    return pearson_correlation_matrix(
        DataMatrix(rng.standard_normal((n, len(labels)))), labels=labels)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestMatrixCsv:
    def test_round_trip_identical(self, rng, tmp_path):
        cm = random_corr(rng, ("a", "b", "c", "d"))
        path = tmp_path / "m.csv"
        write_matrix_csv(cm, path)
        back = read_matrix_csv(path)
        assert back.labels == cm.labels
        assert np.array_equal(back.values, cm.values)

    def test_headerless_gets_default_labels(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        cm = read_matrix_csv(path)
        assert cm.labels == ("V1", "V2")

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0.0,oops\n1.0,0.0\n")
        with pytest.raises(DataError, match="row 1, column 2"):
            read_matrix_csv(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0,2.0\n1.0,0.0,2.0\n")
        with pytest.raises(DataError, match="square"):
            read_matrix_csv(path)

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0\n2.0,0.0\n")
        with pytest.raises(DataError, match="not symmetric"):
            read_matrix_csv(path)

    def test_non_finite_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("a,b\n1.0,nan\nnan,1.0\n")
        with pytest.raises(DataError, match="row 1, column 2"):
            read_matrix_csv(path)
        other = tmp_path / "inf.csv"
        other.write_text("1.0,0.5\n0.5,inf\n")
        assert cli.main(["compare", str(path), str(path)]) == 2
        assert cli.main(["compare", str(other), str(other)]) == 2
        assert "row 2, column 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_matrix_csv(tmp_path / "nope.csv")

    def test_field_past_csv_limit_exit_2(self, tmp_path, capsys):
        # The csv module refuses a field over 131,072 characters.
        path = tmp_path / "long.csv"
        path.write_text("1" * 200_000 + ",0\n0,1\n")
        assert cli.main(["compare", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path}: ")
        assert "field larger than field limit" in err


# Files the C route reads, or leaves to the csv route, with the labels the
# read gives or a piece of its DataError text.
_ROUTE_CASES = {
    "crlf": ("a,b\r\n1,0.5\r\n0.5,1\r\n", True, ("a", "b")),
    "lone_cr": ("a,b\r1,0.5\r0.5,1\r", True, ("a", "b")),
    "blank_lines": ("\na,b\n\r\n1,0.5\r\r\n0.5,1\n\n", True, ("a", "b")),
    "no_final_newline": ("1,0.5\n0.5,1", True, ("V1", "V2")),
    "subnormal_negative_zero": ("5e-324,-0.0\n-0.0,2.225e-308\n", True,
                                ("V1", "V2")),
    "hash_label": ("#a,b\n1,0\n0,1\n", True, ("#a", "b")),
    "quoted_label": ('"a,b",c\n1,0\n0,1\n', True, ("a,b", "c")),
    "bom_label": ("\ufeffa,b\n1,0\n0,1\n", True, ("\ufeffa", "b")),
    "asymmetric": ("1,2\n3,1\n", True, "not symmetric"),
    "label_count": ("a,b,c\n1,0\n0,1\n", True, "3 labels for 2 nodes"),
    "hash_token": ("a,b\n1,#\n#,1\n", False, "cannot parse '#'"),
    "bom_number": ("\ufeff1,0\n0,1\n", False, "row 1 has 2 columns"),
    "quoted_number": ('"1",0\n0,1\n', False, ("V1", "V2")),
    "underscore": ("1_0,0\n0,1\n", False, ("V1", "V2")),
    "arabic_digit": ("\u0661,0\n0,1\n", False, ("V1", "V2")),
    "whitespace_line": ("1,0\n \n0,1\n", False, "row 1 has 2 columns"),
    "form_feed_inside": ("a\n1\x0c2\n", False, "cannot parse '1\\x0c2'"),
    "form_feed_strip": ("1,0\x0c\n0\x0c,1\n", True, ("V1", "V2")),
    "next_line_strip": ("1,0\x85\n0,1\n", False, ("V1", "V2")),
    "line_separator": ("a\n1\u20282\n", False, "cannot parse '1\\u20282'"),
    "file_separator": ("a,b\n1,0\x1c\n0\x1c,1\n", False,
                       "cannot parse '0\\x1c'"),
    "nul": ("a,b\n1,0\x00\n0,1\n", False, "cannot parse '0\\x00'"),
    "nan": ("1,nan\nnan,1\n", False, "non-finite value nan at row 1, column 2"),
    "overflow": ("1,1e400\n1e400,1\n", False, "non-finite value inf"),
    "ragged": ("1,0\n0\n", False, "row 2 has 1 columns, expected 2"),
    "not_square": ("1,0,0\n0,1,0\n", False, "row 1 has 3 columns, expected 2"),
    "empty": ("", False, "empty file"),
    "blank_only": ("\n\r\n\r", False, "empty file"),
    "header_only": ("a,b\n", False, "header but no data rows"),
    "header_then_blank": ("a,b\r\n\r\n\n", False, "header but no data rows"),
    "field_limit_row_1": ("0" * 200_000 + ",0\n0,1\n", False,
                          "field larger than field limit"),
    "field_limit_row_2": ("1,0\n0," + "0" * 200_000 + "\n", False,
                          "field larger than field limit"),
}


def _read_outcome(path):
    """The labels and value bytes read from path, or the DataError text."""
    try:
        matrix = read_matrix_csv(path)
    except DataError as err:
        return str(err)
    return matrix.labels, matrix.values.tobytes()


class TestMatrixCsvRoutes:
    @pytest.mark.parametrize("text, fast, expect", _ROUTE_CASES.values(),
                             ids=_ROUTE_CASES.keys())
    def test_c_route_reads_as_csv_route(self, tmp_path, monkeypatch, text,
                                        fast, expect):
        path = tmp_path / "m.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with path.open(newline="", encoding="utf-8") as fh:
            assert (matrixio._read_with_loadtxt(fh) is not None) == fast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(path)
        monkeypatch.setattr(matrixio, "_read_with_loadtxt", lambda fh: None)
        assert _read_outcome(path) == got
        if isinstance(expect, str):
            assert expect in got
        else:
            assert got[0] == expect

    def test_field_limit_error_text(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(_ROUTE_CASES["field_limit_row_2"][0])
        limit = csv.field_size_limit()
        with pytest.raises(DataError) as err:
            read_matrix_csv(path)
        assert str(err.value) == (f"cannot read {path}: field larger than "
                                  f"field limit ({limit})")

    def test_written_formats_take_the_c_route(self, rng, tmp_path,
                                              monkeypatch):
        # The two formats that the workflows write, and a headerless file,
        # are read with the csv route disabled.
        cm = random_corr(rng, tuple(f"n{k}" for k in range(6)))
        write_matrix_csv(cm, tmp_path / "written.csv")
        np.savetxt(tmp_path / "savetxt.csv", cm.values, fmt="%.17g",
                   delimiter=",", header=",".join(cm.labels), comments="")
        np.savetxt(tmp_path / "bare.csv", cm.values, fmt="%.17g",
                   delimiter=",")

        def csv_route(path, rows):
            raise AssertionError(f"{path} fell back to the csv route")

        monkeypatch.setattr(matrixio, "_parse_rows", csv_route)
        for name, labels in (("written", cm.labels), ("savetxt", cm.labels),
                             ("bare", tuple(f"V{k + 1}" for k in range(6)))):
            back = read_matrix_csv(tmp_path / f"{name}.csv")
            assert back.labels == labels
            assert back.values.tobytes() == cm.values.tobytes()


class TestManifest:
    def write_cohort(self, rng, tmp_path, labels, m=3):
        entries = []
        for k in range(m):
            pa, pb = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
            write_matrix_csv(random_corr(rng, labels), pa)
            write_matrix_csv(random_corr(rng, labels), pb)
            entries.append({"a": pa.name, "b": pb.name})
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"pairs": entries}))
        return path

    def test_load_cohort(self, rng, tmp_path):
        path = self.write_cohort(rng, tmp_path, ("x", "y", "z"))
        cohort = CohortManifest.load(path).load_cohort()
        assert cohort.labels == ("x", "y", "z")
        assert len(cohort.pairs) == 3

    def test_labels_from_builds_one_matrix_per_file(self, rng, tmp_path,
                                                    monkeypatch):
        path = self.write_cohort(rng, tmp_path, ("x", "y", "z"), m=4)
        write_matrix_csv(random_corr(rng, ("p", "q", "r")),
                         tmp_path / "labels.csv")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        built, read = [], []

        class Counted(ConnectivityMatrix):
            def __post_init__(self):
                built.append(self.labels)
                super().__post_init__()

        def counted_read(path, labels=None):
            read.append(path.name)
            return read_matrix_csv(path, labels)

        monkeypatch.setattr(matrixio, "ConnectivityMatrix", Counted)
        monkeypatch.setattr(matrixio, "read_matrix_csv", counted_read)
        cohort = CohortManifest.load(path).load_cohort()
        assert cohort.labels == ("p", "q", "r")
        # the labels file, then each of the 8 pair files once, each read
        # through read_matrix_csv
        assert built == [("p", "q", "r")] * 9
        assert read == ["labels.csv"] + [f"{side}{k}.csv" for k in range(4)
                                         for side in "ab"]

    def test_labels_from_pair_file_errors_name_the_file(self, rng, tmp_path,
                                                        capsys):
        path = self.write_cohort(rng, tmp_path, ("x", "y"))
        write_matrix_csv(random_corr(rng, ("p", "q")), tmp_path / "labels.csv")
        (tmp_path / "b1.csv").write_text("x,y\n1,0.5\n0.25,1\n")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        with pytest.raises(DataError) as err:
            CohortManifest.load(path).load_cohort()
        assert str(err.value).startswith(f"{tmp_path / 'b1.csv'}: matrix not "
                                         "symmetric")

    def test_too_few_pairs(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"pairs": [{"a": "x.csv", "b": "y.csv"}]}))
        with pytest.raises(DataError, match="3 pairs"):
            CohortManifest.load(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text("{")
        with pytest.raises(DataError, match="invalid JSON"):
            CohortManifest.load(path)


class TestCliPvalue:
    def test_worked_example(self, capsys):
        assert cli.main(["pvalue", "--q", "3", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.6" in out and "3/5" in out

    def test_d_zero(self, capsys):
        assert cli.main(["pvalue", "--q", "5", "--d", "0"]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_twin_value(self, capsys):
        assert cli.main(["pvalue", "--q", "115", "--d", "46"]) == 0
        assert "e-08" in capsys.readouterr().out

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.main(["pvalue", "--q", "3"]) == 1

    def test_invalid_q(self, capsys):
        assert cli.main(["pvalue", "--q", "0", "--d", "1"]) == 1

    def test_exact_fraction_past_int_str_limit(self, capsys):
        # C(14400, 7200) has more digits than str(int) accepts by default.
        q, d = 7200, 3
        assert cli.main(["pvalue", "--q", str(q), "--d", str(d)]) == 0
        out = capsys.readouterr().out
        num, den = out.split("(exact ")[1].rstrip(")\n").split("/")
        # The band DP, not the closed form the command computes.
        expected = 1 - Fraction(combinf.count_band_paths(q, d),
                                math.comb(2 * q, q))
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == expected
        assert len(den) > 4300  # CPython's default limit


class TestCliCompare:
    def write_pair(self, rng, tmp_path, same=False):
        labels = ("a", "b", "c", "d", "e")
        ma = random_corr(rng, labels)
        mb = ma if same else random_corr(rng, labels)
        pa, pb = tmp_path / "A.csv", tmp_path / "B.csv"
        write_matrix_csv(ma, pa)
        write_matrix_csv(mb, pb)
        return pa, pb

    def test_identical_files(self, rng, tmp_path, capsys):
        pa, _ = self.write_pair(rng, tmp_path)
        assert cli.main(["compare", str(pa), str(pa), "--mode", "one-minus"]) == 0
        out = capsys.readouterr().out
        assert "D = 0" in out
        assert "(exact 1/1)" in out

    def test_disjoint_toy_matrices(self, tmp_path, capsys):
        # distance matrices whose MST weights have disjoint supports
        labels = ("a", "b", "c", "d")
        base = np.array([
            [0.0, 1.0, 9.0, 9.0],
            [1.0, 0.0, 2.0, 9.0],
            [9.0, 2.0, 0.0, 3.0],
            [9.0, 9.0, 3.0, 0.0]])
        ma = ConnectivityMatrix(labels, base)
        mb = ConnectivityMatrix(labels, base + 10 * (1 - np.eye(4)))
        pa, pb = tmp_path / "A.csv", tmp_path / "B.csv"
        write_matrix_csv(ma, pa)
        write_matrix_csv(mb, pb)
        assert cli.main(["compare", str(pa), str(pb)]) == 0
        out = capsys.readouterr().out
        assert "D = 3" in out
        assert "0.1" in out

    @pytest.mark.parametrize("edges_b", [
        [(0, 1), (2, 3)],  # 2 components against 1
        [],                # no edges at all
    ])
    def test_disconnected_forests_of_unequal_size_exit_2(self, tmp_path, capsys,
                                                          edges_b):
        def write(name, edges):
            values = np.zeros((4, 4))
            for w, (i, j) in enumerate(edges, start=1):
                values[i, j] = values[j, i] = w
            path = tmp_path / f"{name}.csv"
            write_matrix_csv(ConnectivityMatrix(tuple("abcd"), values), path)
            return str(path)

        pa = write("A", [(0, 1), (1, 2), (2, 3)])
        pb = write("B", edges_b)
        assert cli.main(["compare", pa, pb]) == 2
        err = capsys.readouterr().err
        assert "A has 1 component(s)" in err
        assert f"B has {4 - len(edges_b)} component(s)" in err
        # forests of equal size compare
        assert cli.main(["compare", pb, pb]) == (0 if edges_b else 2)
        capsys.readouterr()

    def test_tie_warning_printed_once(self, rng, tmp_path):
        # A subprocess, so that stderr is what a user sees: pytest would
        # capture a library warning instead of printing it.
        pa, _ = self.write_pair(rng, tmp_path)
        src = os.path.dirname(os.path.dirname(combinf.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "combinf.cli", "compare", str(pa), str(pa),
             "--mode", "one-minus"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0
        assert done.stderr.count("tied weights") == 1
        assert "TieWarning" not in done.stderr

    def test_outputs_deterministic(self, rng, tmp_path, capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        args = ["compare", str(pa), str(pb), "--mode", "one-minus",
                "--svg", str(tmp_path / "o.svg"), "--csv", str(tmp_path / "o.csv")]
        assert cli.main(args) == 0
        svg1 = (tmp_path / "o.svg").read_bytes()
        csv1 = (tmp_path / "o.csv").read_bytes()
        assert cli.main(args) == 0
        assert (tmp_path / "o.svg").read_bytes() == svg1
        assert (tmp_path / "o.csv").read_bytes() == csv1
        assert b"edge weight" in svg1 and b"edges added" in svg1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--svg", "--csv"])
    def test_output_into_missing_directory_exit_2(self, rng, tmp_path, capsys,
                                                  flag):
        pa, pb = self.write_pair(rng, tmp_path)
        target = tmp_path / "no_such_dir" / "out"
        assert cli.main(["compare", str(pa), str(pb), flag, str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, rng, tmp_path, capsys):
        pa, _ = self.write_pair(rng, tmp_path)
        small = tmp_path / "small.csv"
        write_matrix_csv(random_corr(rng, ("a", "b")), small)
        assert cli.main(["compare", str(pa), str(small)]) == 2
        capsys.readouterr()

    def test_label_mismatch_exit_2(self, rng, tmp_path, capsys):
        pa, _ = self.write_pair(rng, tmp_path)
        other = tmp_path / "other.csv"
        write_matrix_csv(random_corr(rng, ("a", "b", "c", "d", "z")), other)
        assert cli.main(["compare", str(pa), str(other)]) == 2
        assert "only in B" in capsys.readouterr().err

    def test_localize_output(self, rng, tmp_path, capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        assert cli.main(["compare", str(pa), str(pb), "--mode", "one-minus",
                         "--localize-center", "1.0",
                         "--localize-radius", "2.0"]) == 0
        out = capsys.readouterr().out
        for label in ("a", "b", "c", "d", "e"):
            assert f"  {label}" in out

    @pytest.mark.parametrize("radius", ["-1.0", "-1e-300", "nan", "x"])
    def test_bad_radius_is_usage_error_before_output(self, rng, tmp_path,
                                                     capsys, radius):
        pa, pb = self.write_pair(rng, tmp_path)
        assert cli.main(["compare", str(pa), str(pb), "--localize-center",
                         "0.5", f"--localize-radius={radius}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: argument --localize-radius: ")
        manifest = TestManifest().write_cohort(rng, tmp_path, ("x", "y", "z"))
        assert cli.main(["heritability", "--mz", str(manifest), "--dz",
                         str(manifest), "--out", str(tmp_path / "out"),
                         f"--localize-radius={radius}"]) == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    def test_radius_without_center_is_usage_error_before_output(
            self, rng, tmp_path, capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        want = "usage error: --localize-radius needs --localize-center\n"
        assert cli.main(["compare", str(pa), str(pb),
                         "--localize-radius", "0.5"]) == 1
        assert capsys.readouterr() == ("", want)
        manifest = TestManifest().write_cohort(rng, tmp_path, ("x", "y", "z"))
        assert cli.main(["heritability", "--mz", str(manifest), "--dz",
                         str(manifest), "--out", str(tmp_path / "out"),
                         "--localize-radius", "0.5"]) == 1
        assert capsys.readouterr() == ("", want)
        assert not (tmp_path / "out").exists()


class TestCliHeritability:
    def test_duplicate_manifests_give_zero_hi(self, rng, tmp_path, capsys):
        helper = TestManifest()
        manifest = helper.write_cohort(rng, tmp_path, ("x", "y", "z"), m=4)
        out_dir = tmp_path / "out"
        assert cli.main(["heritability", "--mz", str(manifest),
                         "--dz", str(manifest), "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "D = 0" in printed
        hi = read_matrix_csv(out_dir / "HI.csv")
        assert np.all(hi.values == 0.0)
        assert (out_dir / "C_MZ.csv").exists() and (out_dir / "C_DZ.csv").exists()

    def test_cohort_label_mismatch_exit_2(self, rng, tmp_path, capsys):
        helper = TestManifest()
        manifests = []
        for name, labels in (("mz", ("x", "y", "z")), ("dz", ("x", "y", "w"))):
            (tmp_path / name).mkdir()
            manifests.append(helper.write_cohort(rng, tmp_path / name, labels))
        assert cli.main(["heritability", "--mz", str(manifests[0]),
                         "--dz", str(manifests[1]),
                         "--out", str(tmp_path / "out")]) == 2
        assert ("data error: MZ and DZ cohorts have different node labels"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_degenerate_edges_one_stderr_line_each(self, rng, tmp_path):
        # A subprocess, so that stderr is what a user sees. Edge (x, y) is
        # constant in both cohorts, edge (y, z) in the DZ cohort only.
        labels = ("x", "y", "z")
        manifests = []
        for cohort, constant in (("mz", [(0, 1)]), ("dz", [(0, 1), (1, 2)])):
            entries = []
            for k in range(4):
                names = []
                for side in "ab":
                    values = random_corr(rng, labels).values.copy()
                    for i, j in constant:
                        values[i, j] = values[j, i] = 0.25
                    path = tmp_path / f"{cohort}_{side}{k}.csv"
                    write_matrix_csv(ConnectivityMatrix(labels, values), path)
                    names.append(path.name)
                entries.append({"a": names[0], "b": names[1]})
            manifests.append(tmp_path / f"{cohort}.json")
            manifests[-1].write_text(json.dumps({"pairs": entries}))
        src = os.path.dirname(os.path.dirname(combinf.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "combinf.cli", "heritability",
             "--mz", str(manifests[0]), "--dz", str(manifests[1]),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        degenerate = "is constant across pairs; correlation set to 0"
        assert [line for line in done.stderr.splitlines()
                if "tied weights" not in line] == [
            f"warning: edge (x, y) {degenerate}",
            f"warning: edge (x, y) {degenerate}",
            f"warning: edge (y, z) {degenerate}",
        ]


def test_cli_runs_without_scipy(rng, tmp_path):
    # scipy is a test dependency only: with its import blocked, the
    # commands still run, and nothing under scipy is loaded.
    manifest = TestManifest().write_cohort(rng, tmp_path, ("x", "y", "z"), m=4)
    code = """if True:
        import json, sys
        sys.modules["scipy"] = None
        import combinf
        from combinf import cli, matrixio
        rcs = [cli.main(["pvalue", "--q", "115", "--d", "46"]),
               cli.main(["heritability", "--mz", sys.argv[1],
                         "--dz", sys.argv[1], "--out", sys.argv[2]])]
        loaded = [name for name, module in sys.modules.items()
                  if name.split(".")[0] == "scipy" and module is not None]
        print(json.dumps({"rcs": rcs, "scipy": loaded}))
    """
    src = os.path.dirname(os.path.dirname(combinf.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, str(manifest), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"rcs": [0, 0], "scipy": []}


class TestCliSimulate:
    def test_runs_and_is_deterministic(self, tmp_path, capsys):
        cfg = {"seed": 3, "n": 6, "p": 10, "sigma": 0.1, "replications": 2,
               "permutation_fractions": [0.01], "pairings": [[0, 0], [2, 5]]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(d1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(d2)]) == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "report.txt").exists()
        capsys.readouterr()

    def test_huge_sigma_gives_finite_pvalues(self, tmp_path, capsys):
        # At both sigmas the noise swamps the module signal, so the two data
        # sets differ by the exact factor 2**900 and their p-values agree;
        # squares of values near 1e300 pass the float range.
        reports = []
        for sigma in (1e300, 1e300 * 2.0 ** -900):
            cfg = {"seed": 1, "n": 3, "p": 4, "sigma": sigma,
                   "replications": 3, "permutation_fractions": [1],
                   "pairings": [[0, 0], [1, 2]]}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["simulate", "--config", str(cfg_path),
                             "--out", str(tmp_path / "o")]) == 0
            reports.append(json.loads(
                (tmp_path / "o" / "report.json").read_text())["results"])
        capsys.readouterr()
        pvalues = [pv for cell in reports[0].values() for method in cell.values()
                   for pv in method["pvalues"]]
        assert len(pvalues) == 12 and all(map(math.isfinite, pvalues))
        assert reports[0] == reports[1]

    def test_largest_sigma_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 1, "n": 3, "p": 4, "sigma": 2.0 ** 1000,
            "replications": 2, "permutation_fractions": [0.5],
            "pairings": [[0, 0], [1, 2]]}))
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3, "replications": 0}))
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1
        assert "/replications" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        (5, "/"),
        ({"seed": 3, "n": "10"}, "/n"),
        ({"seed": True}, "/seed"),
        ({"seed": 3, "permutation_fractions": 0.5}, "/permutation_fractions"),
        ({"seed": 3, "pairings": [[4]]}, "/pairings"),
        ({"seed": -1}, "/seed"),
        ({"seed": 3, "sigma": float("nan")}, "/sigma"),
        ({"seed": 3, "sigma": 1.7e308}, "/sigma"),
        ({"seed": 3, "n": 600}, "/permutation_fractions/0"),
    ], ids=["not_object", "string_n", "bool_seed", "scalar_fractions",
            "one_element_pairing", "negative_seed", "nan_sigma",
            "sigma_past_2_to_1000", "relabelings_past_float"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, doc, key):
        # small enough to run quickly wherever a check is missing
        if isinstance(doc, dict):
            doc = {"n": 4, "p": 4, "replications": 1, "pairings": [[0, 0]],
                   "permutation_fractions": [0.1], **doc}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1
        assert f"error: {key}:" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()


class TestCliDataErrors:
    """Malformed input files exit 2 with the offending file's path."""

    def manifest(self, rng, tmp_path, **extra):
        path = TestManifest().write_cohort(rng, tmp_path, ("x", "y"))
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, **extra}))
        return path

    def heritability(self, manifest, tmp_path):
        return cli.main(["heritability", "--mz", str(manifest),
                         "--dz", str(manifest), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("kind", ["matrix", "config", "manifest"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, kind):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\xe9,1\n1,caf\xe9\n".encode("latin-1"))
        argv = {
            "matrix": ["compare", str(bad), str(bad)],
            "config": ["simulate", "--config", str(bad),
                       "--out", str(tmp_path / "o")],
            "manifest": ["heritability", "--mz", str(bad), "--dz", str(bad),
                         "--out", str(tmp_path / "o")],
        }[kind]
        assert cli.main(argv) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_non_string_pair_path_exit_2(self, rng, tmp_path, capsys, key):
        path = self.manifest(rng, tmp_path)
        doc = json.loads(path.read_text())
        doc["pairs"][1][key] = 7
        path.write_text(json.dumps(doc))
        assert self.heritability(path, tmp_path) == 2
        assert f"{path}: pairs[1]" in capsys.readouterr().err

    def test_labels_from_count_mismatch_exit_2(self, rng, tmp_path, capsys):
        labels_path = tmp_path / "labels.csv"
        write_matrix_csv(random_corr(rng, ("x", "y", "z")), labels_path)
        path = self.manifest(rng, tmp_path, labels_from=labels_path.name)
        assert self.heritability(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(labels_path) in err and "3 labels for 2 nodes" in err

    @pytest.mark.parametrize("command", ["simulate", "heritability"])
    @pytest.mark.parametrize("where", ["file", "below_file", "output_is_dir"])
    def test_unwritable_output_exit_2(self, rng, tmp_path, capsys, command, where):
        out = tmp_path / "out"
        if where == "output_is_dir":
            name = "report.json" if command == "simulate" else "HI.csv"
            (out / name).mkdir(parents=True)
        else:
            out.write_text("")
            out = out / "sub" if where == "below_file" else out
        if command == "simulate":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "seed": 3, "n": 4, "p": 4, "replications": 1,
                "pairings": [[0, 0]], "permutation_fractions": [0.1]}))
            argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        else:
            manifest = self.manifest(rng, tmp_path)
            argv = ["heritability", "--mz", str(manifest), "--dz", str(manifest),
                    "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "data error: cannot " in err and str(out) in err

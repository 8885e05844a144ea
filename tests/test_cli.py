import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import combinf
from combinf import cli, matrixio
from combinf.connectivity import ConnectivityMatrix, DataMatrix, pearson_correlation_matrix
from combinf.errors import DataError
from combinf.matrixio import read_cohort, read_matrix_csv, write_matrix_csv
from exact_reference import band_pvalue


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

    @pytest.mark.parametrize("labels, values", [
        ("ab", [[1.0, -0.0], [0.0, 1.0]]),
        ("ab", [[5e-324, 2.2e-308], [2.2e-308, -5e-324]]),
        ("abc", [[0.1, -0.0, 1e300], [-0.0, 1 / 3, -2.5e-7],
                 [1e300, -2.5e-7, 7.0]]),
        (("a,b", 'q"'), [[1.0, -0.0], [0.0, 1.0]]),
        (("a,b", 'q"', "c"), [[0.1, -0.0, 1e300], [-0.0, 1 / 3, -2.5e-7],
                              [1e300, -2.5e-7, 7.0]]),
    ], ids=["signed_zero_mirror", "subnormal", "symmetric", "quoted_labels",
            "quoted_labels_symmetric"])
    def test_writes_the_bytes_of_every_cell_formatted(self, tmp_path, labels,
                                                      values):
        # A ConnectivityMatrix stores exactly symmetric values, whose
        # mirrored strings are made once; the bytes are those of csv.writer
        # on the labels, quoted where csv needs it, and on every float.
        matrix = ConnectivityMatrix(tuple(labels), values)
        bits = matrix.values.view(np.uint64)
        assert (bits == bits.T).all()
        write_matrix_csv(matrix, tmp_path / "m.csv")
        with (tmp_path / "ref.csv").open("w", newline="",
                                         encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(matrix.labels)
            writer.writerows(matrix.values.tolist())
        assert ((tmp_path / "m.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_written_matrix_reads_back_bit_for_bit(self, rng, tmp_path):
        odd = np.array([[-0.0, 2e-323, 0.3], [2e-323, 1.0, -1e-310],
                        [0.3, -1e-310, 5e-324]])
        for cm in (random_corr(rng, tuple(f"n{k}" for k in range(9))),
                   ConnectivityMatrix(("x", "y", "z"), odd)):
            path = tmp_path / "m.csv"
            write_matrix_csv(cm, path)
            back = read_matrix_csv(path)
            assert back.labels == cm.labels
            assert back.values.tobytes() == cm.values.tobytes()

    def test_headerless_gets_default_labels(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        cm = read_matrix_csv(path)
        assert cm.labels == ("V1", "V2")

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0.0,oops\n1.0,0.0\n")
        with pytest.raises(DataError) as err:
            read_matrix_csv(path)
        assert str(err.value) == (f"{path}: cannot parse 'oops' as a number "
                                  f"at row 1, column 2")

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


# Files with the route that reads them, and the labels the read gives or a
# piece of its DataError text. The routes: "upper" (the C route parses the
# upper triangle of a body whose mirrored tokens are the same bytes),
# "lines" (the C route parses every line) and "csv" (the C route declines
# the body, or the file has none). Either C route reads as the csv route
# does.
_ROUTE_CASES = {
    "crlf": ("a,b\r\n1,0.5\r\n0.5,1\r\n", "upper", ("a", "b")),
    "mixed_line_ends": ("1,0.5\r\n0.5,1\n", "upper", ("V1", "V2")),
    "crlf_no_final_newline": ("1,0.5\r\n0.5,1", "lines", ("V1", "V2")),
    "crlf_mirror_spelled_twice": ("1,0.5\r\n0.50,1\r\n", "lines",
                                  ("V1", "V2")),
    "lone_cr": ("a,b\r1,0.5\r0.5,1\r", "lines", ("a", "b")),
    "blank_lines": ("\na,b\n\r\n1,0.5\r\r\n0.5,1\n\n", "lines", ("a", "b")),
    "no_final_newline": ("1,0.5\n0.5,1", "lines", ("V1", "V2")),
    "mirror_spelled_twice": ("a,b\n1,0.5\n0.50,1\n", "lines", ("a", "b")),
    "mirror_signed_zero": ("1,-0.0\n0.0,1\n", "lines", ("V1", "V2")),
    "mirror_is_a_prefix": ("a,b\n1,0.50\n0.5,1\n", "lines", ("a", "b")),
    "mirror_is_a_prefix_of_another_value": ("1,0.5\n0,1\n", "lines",
                                            "not symmetric"),
    "mirror_space": ("1, 0.5\n0.5 ,1\n", "lines", ("V1", "V2")),
    "mirror_exponent": ("1,5e-1\n0.5,1\n", "lines", ("V1", "V2")),
    # row 0 and column 0 agree, so the check gets past its first test;
    # "+7" and "7." have one length
    "mirror_differs_past_row_0": ("a,b,c\n1,0.5,0\n0.5,1,+7\n0,7.,1\n",
                                  "lines", ("a", "b", "c")),
    "crlf_mirror_differs_past_row_0": ("1,0,0\r\n0,1,-0.0\r\n0,0.0,1\r\n",
                                       "lines", ("V1", "V2", "V3")),
    "byte_symmetric": ("a,b,c\n1,0.5,-2e-3\n0.5,1,+7\n-2e-3,+7,1\n", "upper",
                       ("a", "b", "c")),
    "one_node": ("x\n5\n", "upper", ("x",)),
    "subnormal_negative_zero": ("5e-324,-0.0\n-0.0,2.225e-308\n", "upper",
                                ("V1", "V2")),
    "hash_label": ("#a,b\n1,0\n0,1\n", "upper", ("#a", "b")),
    "quoted_label": ('"a,b",c\n1,0\n0,1\n', "upper", ("a,b", "c")),
    # the body starts past the header's lines, however many they are
    "header_spans_two_lines": ('"a\nb",c\n1,0\n0,1\n', "upper",
                               ("a\nb", "c")),
    "blank_lines_before_header": ("\n\na,b\n1,0\n0,1\n", "upper", ("a", "b")),
    # a leading UTF-8 byte-order mark is dropped
    "bom_label": ("\ufeffa,b\n1,0\n0,1\n", "upper", ("a", "b")),
    # the body's bytes start past a header of more bytes than characters
    "non_ascii_label": ("\u00e9,b\n1,0\n0,1\n", "upper", ("\u00e9", "b")),
    "asymmetric": ("1,2\n3,1\n", "lines", "not symmetric"),
    "label_count": ("a,b,c\n1,0\n0,1\n", "upper", "3 labels for 2 nodes"),
    "hash_token": ("a,b\n1,#\n#,1\n", "csv", "cannot parse '#'"),
    "bad_mirrored_token": ("a,b\n1,x\nx,1\n", "csv", "cannot parse 'x'"),
    "bom_number": ("\ufeff1,0\n0,1\n", "upper", ("V1", "V2")),
    "quoted_number": ('"1",0\n0,1\n', "csv", ("V1", "V2")),
    "underscore": ("1_0,0\n0,1\n", "csv", ("V1", "V2")),
    "arabic_digit": ("\u0661,0\n0,1\n", "csv", ("V1", "V2")),
    # numpy reads the bytes as latin-1 and rejects these; float() reads them
    "nbsp_padded_and_fullwidth": ("a,b\n\uff11,\u00a00.5\n\u00a00.5,\uff11\n",
                                  "csv", ("a", "b")),
    "whitespace_line": ("1,0\n \n0,1\n", "csv", "row 1 has 2 columns"),
    "form_feed_inside": ("a\n1\x0c2\n", "csv", "cannot parse '1\\x0c2'"),
    "form_feed_strip": ("1,0\x0c\n0\x0c,1\n", "upper", ("V1", "V2")),
    "next_line_strip": ("1,0\x85\n0,1\n", "csv", ("V1", "V2")),
    "line_separator": ("a\n1\u20282\n", "csv", "cannot parse '1\\u20282'"),
    "file_separator": ("a,b\n1,0\x1c\n0\x1c,1\n", "csv",
                       "cannot parse '0\\x1c'"),
    "nul": ("a,b\n1,0\x00\n0,1\n", "csv", "cannot parse '0\\x00'"),
    "nan": ("1,nan\nnan,1\n", "upper",
            "non-finite value nan at row 1, column 2"),
    "overflow": ("1,1e400\n1e400,1\n", "upper", "non-finite value inf"),
    "ragged": ("1,0\n0\n", "csv", "row 2 has 1 columns, expected 2"),
    # p * p tokens in all, which read row by row make a symmetric grid
    "ragged_p_squared_tokens": ("1,2,2\n1\n", "csv",
                                "row 1 has 3 columns, expected 2"),
    "not_square": ("1,0,0\n0,1,0\n", "csv", "row 1 has 3 columns, expected 2"),
    "empty": ("", "csv", "empty file"),
    "blank_only": ("\n\r\n\r", "csv", "empty file"),
    "header_only": ("a,b\n", "csv", "header but no data rows"),
    "header_then_blank": ("a,b\r\n\r\n\n", "csv", "header but no data rows"),
    "field_limit_row_1": ("0" * 200_000 + ",0\n0,1\n", "csv",
                          "field larger than field limit"),
    "field_limit_row_2": ("1,0\n0," + "0" * 200_000 + "\n", "csv",
                          "field larger than field limit"),
}


def _c_route(path, monkeypatch):
    """"upper" or "lines", the part of the C route that read path, or "csv"
    when the C route declined its body or the file has none."""
    upper, table = [], [None]
    real_upper = matrixio._upper_triangle_lines
    real_body = matrixio._loadtxt_body

    def upper_spy(*args):
        upper.append(real_upper(*args))
        return upper[-1]

    def body_spy(*args):
        table.append(real_body(*args))
        return table[-1]

    with monkeypatch.context() as patch:
        patch.setattr(matrixio, "_upper_triangle_lines", upper_spy)
        patch.setattr(matrixio, "_loadtxt_body", body_spy)
        _read_outcome(path)
    if table[-1] is None:
        return "csv"
    return "lines" if upper[-1] is None else "upper"


def _read_outcome(path):
    """The labels and value bytes read from path, or the DataError text."""
    try:
        matrix = read_matrix_csv(path)
    except DataError as err:
        return str(err)
    return matrix.labels, matrix.values.tobytes()


class TestMatrixCsvRoutes:
    @pytest.mark.parametrize("text, route, expect", _ROUTE_CASES.values(),
                             ids=_ROUTE_CASES.keys())
    def test_c_route_reads_as_csv_route(self, tmp_path, monkeypatch, text,
                                        route, expect):
        path = tmp_path / "m.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        assert _c_route(path, monkeypatch) == route
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(path)
        monkeypatch.setattr(matrixio, "_loadtxt_body", lambda *args: None)
        assert _read_outcome(path) == got
        if isinstance(expect, str):
            assert expect in got
        else:
            assert got[0] == expect

    @pytest.mark.parametrize("case", ["byte_symmetric", "quoted_number",
                                      "not_utf_8"])
    def test_reads_the_file_once(self, tmp_path, monkeypatch, case):
        # the C route reads byte_symmetric; the csv route reads on from the
        # lines of the same open for quoted_number; the one decode of the
        # bytes read reports where a file is not UTF-8
        path = tmp_path / "m.csv"
        if case == "not_utf_8":
            path.write_bytes(b"a,b\n1,\xff\n0,1\n")
        else:
            path.write_text(_ROUTE_CASES[case][0])
        opened = []
        real = Path.open

        def spy(self, *args, **kwargs):
            opened.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spy)
        if case == "not_utf_8":
            with pytest.raises(DataError) as err:
                read_matrix_csv(path)
            assert str(err.value) == (
                f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
                "position 6: invalid start byte")
        else:
            assert read_matrix_csv(path).labels == _ROUTE_CASES[case][2]
        assert opened == [path]

    def test_row_0_against_column_0_comes_before_the_body(self):
        # A matrix symmetric only within the tolerance differs in row 0 and
        # column 0; the check turns it away from the bytes and line bounds
        # alone, without the passes over the scanned separators (None here).
        data = b"1,0.10000000000000001,0.2\n0.1,1,0.3\n0.2,0.3,1\n"
        bounds = [0, 26, 36, 46]  # where each line starts, and the end
        assert len(data) == bounds[-1]
        assert matrixio._upper_triangle_lines(data, bounds, None,
                                              None) is None

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
        # are read with the csv route disabled, each by its upper triangle.
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
            assert _c_route(tmp_path / f"{name}.csv", monkeypatch) == "upper"
            back = read_matrix_csv(tmp_path / f"{name}.csv")
            assert back.labels == labels
            assert back.values.tobytes() == cm.values.tobytes()


    def test_p400_read_peak_memory(self, rng, tmp_path, monkeypatch):
        # A p = 400 %.17g export, 3.3 MB, byte-symmetric: the read peaks at
        # 3.9 times the file's size (numpy 2.4), parsing the upper triangle
        # in lines of about p tokens. The whole text widened to 4 bytes a
        # character peaked at 7.5 times, one 1.7 MB line handed to numpy at
        # 4.6 times.
        p = 400
        x = rng.uniform(-1, 1, (p, p))
        path = tmp_path / "m400.csv"
        np.savetxt(path, (x + x.T) / 2, fmt="%.17g", delimiter=",",
                   header=",".join(f"R{k}" for k in range(p)), comments="")
        assert _c_route(path, monkeypatch) == "upper"
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            matrix = read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert matrix.p == p
        assert peak <= 4.5 * path.stat().st_size, peak / path.stat().st_size

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
        cohort = read_cohort(path)
        assert cohort.labels == ("x", "y", "z")
        assert len(cohort.pairs) == 3

    @staticmethod
    def count_reads(monkeypatch):
        """The labels of each ConnectivityMatrix built and the name of each
        file read through read_matrix_csv, as they happen."""
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
        return built, read

    def test_labels_from_builds_one_matrix_per_file(self, rng, tmp_path,
                                                    monkeypatch):
        path = self.write_cohort(rng, tmp_path, ("p", "q", "r"), m=4)
        write_matrix_csv(random_corr(rng, ("p", "q", "r")),
                         tmp_path / "labels.csv")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        built, read = self.count_reads(monkeypatch)
        cohort = read_cohort(path)
        assert cohort.labels == ("p", "q", "r")
        # the labels file, then each of the 8 pair files once, each read
        # through read_matrix_csv
        assert built == [("p", "q", "r")] * 9
        assert read == ["labels.csv"] + [f"{side}{k}.csv" for k in range(4)
                                         for side in "ab"]

    def test_conflicting_pair_file_is_read_once(self, rng, tmp_path,
                                                monkeypatch):
        path = self.write_cohort(rng, tmp_path, ("p", "q", "r"))
        write_matrix_csv(random_corr(rng, ("p", "q", "r")),
                         tmp_path / "labels.csv")
        write_matrix_csv(random_corr(rng, ("p", "r", "q")),
                         tmp_path / "b1.csv")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        built, read = self.count_reads(monkeypatch)
        with pytest.raises(DataError) as err:
            read_cohort(path)
        assert str(err.value) == (
            f"{tmp_path / 'b1.csv'}: labels from {tmp_path / 'labels.csv'}: "
            "header has 'r' at position 1, the labels 'q'")
        # b1 is read and validated once, under its own header, and then
        # compared with the labels
        assert read == ["labels.csv", "a0.csv", "b0.csv", "a1.csv", "b1.csv"]
        assert built == [("p", "q", "r")] * 4 + [("p", "r", "q")]

    @pytest.mark.parametrize("text, error", [
        ("1,0.5\n0.25,1\n", "matrix not symmetric at (0,1)"),
        ("1,0,0\n0,1,0\n0,0,1\n", "labels from {}: 2 labels for 3 nodes"),
        ("1,0,0\n0,1,0\n0,1,1\n", "matrix not symmetric at (1,2)"),
    ], ids=["own_error_under_labels", "count", "own_error_under_v1_vp"])
    def test_headerless_pair_file_errors(self, rng, tmp_path, text, error):
        # a headerless pair file is validated under the labels when there is
        # one per row, else under V1..Vp; its own errors come first
        path = self.write_cohort(rng, tmp_path, ("p", "q"))
        write_matrix_csv(random_corr(rng, ("p", "q")), tmp_path / "labels.csv")
        (tmp_path / "a1.csv").write_text(text)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        with pytest.raises(DataError) as err:
            read_cohort(path)
        assert str(err.value).startswith(
            f"{tmp_path / 'a1.csv'}: "
            + error.format(tmp_path / "labels.csv"))

    def test_read_matrix_csv_labels_name_a_headerless_file(self, tmp_path):
        # the labels name the nodes of a file without a header that has one
        # row per label, and no other
        path = tmp_path / "m.csv"
        path.write_text("1,0.5\n0.5,1\n")
        assert read_matrix_csv(path, ("p", "q")).labels == ("p", "q")
        assert read_matrix_csv(path, ("p", "q", "r")).labels == ("V1", "V2")
        path.write_text("x,y\n1,0.5\n0.5,1\n")
        assert read_matrix_csv(path, ("p", "q")).labels == ("x", "y")

    def test_labels_from_pair_file_errors_name_the_file(self, rng, tmp_path,
                                                        capsys):
        path = self.write_cohort(rng, tmp_path, ("p", "q"))
        write_matrix_csv(random_corr(rng, ("p", "q")), tmp_path / "labels.csv")
        # b1's own error comes before its header's conflict with the labels
        (tmp_path / "b1.csv").write_text("x,y\n1,0.5\n0.25,1\n")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        with pytest.raises(DataError) as err:
            read_cohort(path)
        assert str(err.value).startswith(f"{tmp_path / 'b1.csv'}: matrix not "
                                         "symmetric")

    def test_labels_from_header_must_equal_the_labels(self, rng, tmp_path):
        labels = ("a", "b", "c", "d")
        path = self.write_cohort(rng, tmp_path, labels)
        write_matrix_csv(random_corr(rng, labels), tmp_path / "labels.csv")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": "labels.csv"}))
        # a pair file without a header takes the labels
        np.savetxt(tmp_path / "a0.csv", random_corr(rng, labels).values,
                   fmt="%.17g", delimiter=",")
        assert read_cohort(path).labels == labels
        write_matrix_csv(random_corr(rng, ("a", "b", "d", "c")),
                         tmp_path / "b1.csv")
        with pytest.raises(DataError) as err:
            read_cohort(path)
        assert str(err.value) == (
            f"{tmp_path / 'b1.csv'}: labels from {tmp_path / 'labels.csv'}: "
            "header has 'd' at position 2, the labels 'c'")

    def test_too_few_pairs(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"pairs": [{"a": "x.csv", "b": "y.csv"}]}))
        with pytest.raises(DataError, match="3 pairs"):
            read_cohort(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text("{")
        with pytest.raises(DataError, match="invalid JSON"):
            read_cohort(path)


class TestCliPvalue:
    def test_worked_example(self, capsys):
        assert cli.main(["pvalue", "--q", "3", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.6" in out and "3/5" in out

    def test_d_zero(self, capsys):
        assert cli.main(["pvalue", "--q", "5", "--d", "0"]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_twin_value(self, capsys):
        # A normal double is shown by %.6g of the double.
        assert cli.main(["pvalue", "--q", "115", "--d", "46"]) == 0
        assert capsys.readouterr().out.startswith(
            "P(D_115 >= 46) = 1.31741e-08 (exact ")

    @pytest.mark.parametrize("q, shown", [(540, "6.36073e-324"),
                                          (600, "5.04401e-360")])
    def test_pvalue_below_the_smallest_normal_double(self, q, shown, capsys):
        # 2 / C(2q, q): a subnormal double at q = 540 (printed 4.94066e-324
        # as a double), 0.0 at q = 600 (printed 0).
        assert cli.main(["pvalue", "--q", str(q), "--d", str(q)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"P(D_{q} >= {q}) = {shown} (exact ")
        exact = band_pvalue(q, q)
        assert 0 < exact < sys.float_info.min
        # Within half a unit of the sixth significant digit of the band DP.
        exp = int(shown.split("e")[1])
        assert abs(Fraction(shown) - exact) <= Fraction(10) ** (exp - 5) / 2

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
        expected = band_pvalue(q, d)
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == expected
        assert len(den) > 4300  # CPython's default limit


_TOP_HELP = """\
usage: combinf [-h] {pvalue,compare,heritability,simulate} ...

Exact combinatorial inference on MST shapes of connectivity networks

positional arguments:
  {pvalue,compare,heritability,simulate}
    pvalue              exact P(D_q >= d)
    compare             compare the spanning trees of two matrices
    heritability        twin heritability pipeline
    simulate            modular-network benchmark

options:
  -h, --help            show this help message and exit
"""

# argv -> (exit code, stdout, stderr); the texts are those
# the parser gave when it registered every subcommand on every command line.
_PARSE_CASES = {
    "empty": ([], 1, "", "usage error: the following arguments are required: "
              "command\n"),
    "unknown_command": (["bogus"], 1, "", (
        "usage error: argument command: invalid choice: 'bogus' (choose from "
        "'pvalue', 'compare', 'heritability', 'simulate')\n")),
    "help": (["-h"], 0, _TOP_HELP, ""),
    "pvalue_help": (["pvalue", "-h"], 0,
                    "usage: combinf pvalue [-h] --q Q --d D\n", ""),
    "compare_help": (["compare", "-h"], 0, (
        "usage: combinf compare [-h] [--mode {distance,max-tree,one-minus}]\n"
        "                       [--localize-center LOCALIZE_CENTER]\n"
        "                       [--localize-radius LOCALIZE_RADIUS] [--svg SVG]\n"
        "                       [--csv CSV]\n"
        "                       matrix_a matrix_b\n"), ""),
    "missing_option": (["pvalue", "--q", "3"], 1, "",
                       "usage error: the following arguments are required: --d\n"),
    "extra_argument": (["pvalue", "--q", "3", "--d", "1", "extra"], 1, "",
                       "usage error: unrecognized arguments: extra\n"),
    "missing_positional": (["compare", "a.csv"], 1, "", (
        "usage error: the following arguments are required: matrix_b\n")),
    "abbreviated_option": (["compare", "a.csv", "b.csv", "--localize-c", "0.2"],
                           0, ("q = 2\nD = 1 at weight 0.1\n"
                               "p-value = 1 (exact 1/1)\n"
                               "nodes within 0 of weight 0.2:\n  a\n  c\n"), ""),
    "radius_without_center": (
        ["compare", "a.csv", "b.csv", "--localize-radius", "0.5"], 1, "",
        "usage error: --localize-radius needs --localize-center\n"),
}


class TestCliParser:
    @pytest.mark.parametrize("case", _PARSE_CASES.values(), ids=_PARSE_CASES)
    def test_command_line_outputs(self, tmp_path, capsys, monkeypatch, case):
        argv, code, out, err = case
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this
        (tmp_path / "a.csv").write_text("a,b,c\n1,0.9,0.2\n0.9,1,0.4\n0.2,0.4,1\n")
        (tmp_path / "b.csv").write_text("a,b,c\n1,0.1,0.7\n0.1,1,0.3\n0.7,0.3,1\n")
        try:
            rc = cli.main(argv)
        except SystemExit as exit_:  # -h prints its help and exits
            rc = exit_.code
        got = capsys.readouterr()
        assert rc == code
        stdout = got.out
        if argv[1:] == ["-h"]:  # a subcommand's help, checked by its usage
            stdout = stdout.partition("\n\n")[0] + "\n"
        assert (stdout, got.err) == (out, err)

    @pytest.mark.parametrize("argv, built", [
        (["pvalue", "--q", "3", "--d", "2"], 1), ([], 4), (["bogus"], 4)])
    def test_builds_only_the_named_subcommand(self, capsys, monkeypatch, argv,
                                              built):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        cli.main(argv)
        assert len(calls) == built


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

    def test_markup_in_file_names_is_escaped_in_svg(self, rng, tmp_path,
                                                    capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        pa, pb = pa.rename(tmp_path / "R&D.csv"), pb.rename(tmp_path / "x<y>.csv")
        svg = tmp_path / "o.svg"
        assert cli.main(["compare", str(pa), str(pb), "--svg", str(svg)]) == 0
        texts = [el.text for el in ET.parse(svg).iter()
                 if el.tag.endswith("text")]
        assert "R&D (solid)" in texts and "x<y> (dashed)" in texts
        capsys.readouterr()

    def test_undecodable_file_name_gives_replacement_label(self, rng, tmp_path,
                                                           capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        pb = pb.rename(tmp_path / os.fsdecode(b"gr\xfc.csv"))
        svg, steps = tmp_path / "o.svg", tmp_path / "o.csv"
        assert cli.main(["compare", str(pa), str(pb), "--svg", str(svg),
                         "--csv", str(steps)]) == 0
        texts = [el.text for el in ET.parse(svg).iter()
                 if el.tag.endswith("text")]
        assert "gr\ufffd (dashed)" in texts
        with steps.open(encoding="utf-8", newline="") as fh:
            series = {row["series"] for row in csv.DictReader(fh)}
        assert series == {"A", "gr\ufffd"}
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

    def test_reordered_labels_exit_2(self, rng, tmp_path, capsys):
        pa, pb = tmp_path / "A.csv", tmp_path / "B.csv"
        write_matrix_csv(random_corr(rng, ("a", "b", "c")), pa)
        write_matrix_csv(random_corr(rng, ("b", "a", "c")), pb)
        assert cli.main(["compare", str(pa), str(pb)]) == 2
        assert capsys.readouterr().err == (
            "data error: node labels differ in order: position 0 is 'a' in A "
            "and 'b' in B\n")

    def test_repeated_label_exit_2(self, tmp_path, capsys):
        pa, pb = tmp_path / "D.csv", tmp_path / "E.csv"
        for path in (pa, pb):
            path.write_text("a,a,c\n1,0.2,0.9\n0.2,1,0.4\n0.9,0.4,1\n")
        assert cli.main(["compare", str(pa), str(pb), "--localize-center",
                         "0.2", "--localize-radius", "1"]) == 2
        assert capsys.readouterr() == (
            "", f"data error: {pa}: node label 'a' repeated at positions 0 "
                "and 1\n")

    def test_localize_output(self, rng, tmp_path, capsys):
        pa, pb = self.write_pair(rng, tmp_path)
        assert cli.main(["compare", str(pa), str(pb), "--mode", "one-minus",
                         "--localize-center", "1.0",
                         "--localize-radius", "2.0"]) == 0
        out = capsys.readouterr().out
        for label in ("a", "b", "c", "d", "e"):
            assert f"  {label}" in out

    @pytest.mark.parametrize("option, value", [
        ("radius", "-1.0"), ("radius", "-1e-300"), ("radius", "nan"),
        ("radius", "x"), ("center", "nan"), ("center", "inf"),
        ("center", "-inf")],
        ids=["-1.0", "-1e-300", "nan", "x", "center-nan", "center-inf",
             "center--inf"])
    def test_bad_radius_is_usage_error_before_output(self, rng, tmp_path,
                                                     capsys, option, value):
        pa, pb = self.write_pair(rng, tmp_path)
        given = {"center": "0.5", "radius": "0.1", option: value}
        assert cli.main(["compare", str(pa), str(pb),
                         f"--localize-center={given['center']}",
                         f"--localize-radius={given['radius']}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: argument --localize-{option}: ")
        manifest = TestManifest().write_cohort(rng, tmp_path, ("x", "y", "z"))
        assert cli.main(["heritability", "--mz", str(manifest), "--dz",
                         str(manifest), "--out", str(tmp_path / "out"),
                         f"--localize-{option}={value}"]) == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    def test_one_node_matrix_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a\n1\n")
        assert cli.main(["compare", str(path), str(path)]) == 2
        assert capsys.readouterr() == ("", (
            "data error: spanning forests need the same, nonzero number of "
            "edges: one has 1 component(s), one has 1 component(s)\n"))

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

    def test_one_node_cohorts_exit_2(self, tmp_path, capsys):
        entries = []
        for k in range(3):
            for side in "ab":
                write_matrix_csv(ConnectivityMatrix(("x",), np.ones((1, 1))),
                                 tmp_path / f"{side}{k}.csv")
            entries.append({"a": f"a{k}.csv", "b": f"b{k}.csv"})
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"pairs": entries}))
        assert cli.main(["heritability", "--mz", str(manifest), "--dz",
                         str(manifest), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        # Both trees are checked before any output is written.
        assert out == ""
        assert not (tmp_path / "out").exists()
        assert err == ("data error: spanning forests need the same, nonzero "
                       "number of edges: MZ has 1 component(s), DZ has 1 "
                       "component(s)\n")

    def test_cohort_label_mismatch_exit_2(self, rng, tmp_path, capsys):
        helper = TestManifest()
        manifests = []
        for name, labels in (("mz", ("x", "y", "z")), ("dz", ("x", "y", "w"))):
            (tmp_path / name).mkdir()
            manifests.append(helper.write_cohort(rng, tmp_path / name, labels))
        assert cli.main(["heritability", "--mz", str(manifests[0]),
                         "--dz", str(manifests[1]),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", "data error: node labels differ (only in MZ: ['z'], only in "
                "DZ: ['w'])\n")
        assert not (tmp_path / "out").exists()

    def test_cohort_labels_reordered_exit_2(self, rng, tmp_path, capsys):
        helper = TestManifest()
        manifests = []
        for name, labels in (("mz", ("x", "y", "z")), ("dz", ("x", "z", "y"))):
            (tmp_path / name).mkdir()
            manifests.append(helper.write_cohort(rng, tmp_path / name, labels))
        assert cli.main(["heritability", "--mz", str(manifests[0]),
                         "--dz", str(manifests[1]),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", "data error: node labels differ in order: position 1 is 'y' "
                "in MZ and 'z' in DZ\n")
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
    # commands still run, and nothing under scipy is loaded. pvalue uses no
    # arrays, so it loads no numpy submodule either; heritability then
    # loads numpy on its first array call.
    manifest = TestManifest().write_cohort(rng, tmp_path, ("x", "y", "z"), m=4)
    code = """if True:
        import json, sys
        sys.modules["scipy"] = None
        import combinf
        from combinf import cli, matrixio
        rcs = [cli.main(["pvalue", "--q", "115", "--d", "46"])]
        numpy_loaded = [name for name in sys.modules
                        if name.startswith("numpy.")]
        rcs.append(cli.main(["heritability", "--mz", sys.argv[1],
                             "--dz", sys.argv[1], "--out", sys.argv[2]]))
        loaded = [name for name, module in sys.modules.items()
                  if name.split(".")[0] == "scipy" and module is not None]
        print(json.dumps({"rcs": rcs, "scipy": loaded,
                          "numpy_after_pvalue": numpy_loaded}))
    """
    src = os.path.dirname(os.path.dirname(combinf.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, str(manifest), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"rcs": [0, 0], "scipy": [], "numpy_after_pvalue": []}


def test_blocked_numpy_fails_at_import():
    # numpy loads lazily, but a missing or blocked numpy is still an
    # ImportError at import time, not an AttributeError on first use.
    code = """if True:
        import sys
        sys.modules["numpy"] = None
        try:
            import combinf
        except ImportError as err:
            print(type(err).__name__)
    """
    src = os.path.dirname(os.path.dirname(combinf.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ModuleNotFoundError"]


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
        # C(1040, 520) is past the largest double, and 5e-324 of it is few
        # enough relabelings to pass the cap on their count
        ({"seed": 1, "n": 520, "permutation_fractions": [5e-324]},
         "/permutation_fractions/0: 5e-324 x C(1040, 520) has no double "
         "value"),
    ], ids=["not_object", "string_n", "bool_seed", "scalar_fractions",
            "one_element_pairing", "negative_seed", "nan_sigma",
            "sigma_past_2_to_1000", "relabelings_past_float",
            "count_past_double"])
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

    @pytest.mark.parametrize("extra, key", [
        ({"permutation_fractions": [0.1, 0.1]}, "/permutation_fractions/1"),
        ({"permutation_fractions": [0.001, 0.0010000000000000002]},
         "/permutation_fractions/1"),
        ({"pairings": [[0, 0], [2, 2], [0, 0]]}, "/pairings/2"),
    ], ids=["same_fraction", "same_fraction_label", "same_pairing"])
    def test_repeated_report_label_exit_1(self, tmp_path, capsys, extra, key):
        # report.json keys its columns and rows by label, so a repeat would
        # merge or overwrite p-values
        doc = {"seed": 3, "n": 4, "p": 4, "replications": 2,
               "pairings": [[0, 0]], "permutation_fractions": [0.1], **extra}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1
        assert f"error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_read_errors_spell_config_and_manifest_paths_alike(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{bad")
        invalid = ("bad.json: invalid JSON: Expecting property name enclosed "
                   "in double quotes: line 1 column 2 (char 1)")
        for name, argv in (("config ", ["simulate", "--config"]),
                           ("", ["heritability", "--dz", "x", "--mz"])):
            assert cli.main([*argv, "./nope.json", "--out", "o"]) == 2
            assert capsys.readouterr() == ("", (
                f"data error: cannot read {name}nope.json: [Errno 2] No such "
                "file or directory: 'nope.json'\n"))
            assert cli.main([*argv, "./bad.json", "--out", "o"]) == 2
            assert capsys.readouterr() == ("", f"data error: {invalid}\n")


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

    def test_bom_prefixed_manifest_and_config_load(self, rng, tmp_path,
                                                   capsys):
        # Excel's "CSV UTF-8" and some editors start a file with the mark
        manifest = self.manifest(rng, tmp_path)
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert len(read_cohort(manifest).pairs) == 3
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({
            "seed": 3, "n": 4, "p": 4, "replications": 1,
            "pairings": [[0, 0]], "permutation_fractions": [0.1]}).encode())
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "report.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_non_string_pair_path_exit_2(self, rng, tmp_path, capsys, key):
        path = self.manifest(rng, tmp_path)
        doc = json.loads(path.read_text())
        doc["pairs"][1][key] = 7
        path.write_text(json.dumps(doc))
        assert self.heritability(path, tmp_path) == 2
        assert f"{path}: pairs[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a", "b", "labels_from"])
    def test_empty_path_exit_2(self, rng, tmp_path, capsys, key):
        # "" would name the manifest's directory, or drop the label check
        path = self.manifest(rng, tmp_path)
        doc = json.loads(path.read_text())
        if key == "labels_from":
            doc["labels_from"] = ""
            named = "'labels_from' must be a non-empty path string"
        else:
            doc["pairs"][2][key] = ""
            named = "pairs[2] must have 'a' and 'b' non-empty path strings"
        path.write_text(json.dumps(doc))
        assert self.heritability(path, tmp_path) == 2
        assert capsys.readouterr() == ("", f"data error: {path}: {named}\n")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_decode_error_names_the_file_offset(self, tmp_path, capsys, bom):
        # The text wrapper decodes 8 KiB at a time and counts the position
        # within that chunk; the report counts it from the start of the file,
        # or after the byte-order mark.
        labels = [f"v{i}" for i in range(90)]
        body = "\n".join(",".join(["0.123456789"] * 90) for _ in labels)
        data = bytearray(bom + (",".join(labels) + "\n" + body + "\n").encode())
        at = len(data) - 5
        data[at] = 0xFF
        assert len(data) > 8 * 8192
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        assert cli.main(["compare", str(bad), str(bad)]) == 2
        pos = at - len(bom)
        after = " (position counted after the byte-order mark)" if bom else ""
        assert capsys.readouterr() == ("", (
            f"data error: cannot read {bad}: 'utf-8' codec can't decode byte "
            f"0xff in position {pos}: invalid start byte{after}\n"))

    def test_labels_from_header_conflict_exit_2(self, rng, tmp_path, capsys):
        labels_path = tmp_path / "labels.csv"
        write_matrix_csv(random_corr(rng, ("a", "b", "c", "d")), labels_path)
        path = TestManifest().write_cohort(rng, tmp_path, ("d", "c", "b", "a"))
        write_matrix_csv(random_corr(rng, ("x", "y", "z", "w")),
                         tmp_path / "b0.csv")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "labels_from": labels_path.name}))
        assert self.heritability(path, tmp_path) == 2
        assert capsys.readouterr() == ("", (
            f"data error: {tmp_path / 'a0.csv'}: labels from {labels_path}: "
            "header has 'd' at position 0, the labels 'a'\n"))

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

"""CSV connectivity-matrix files and JSON cohort manifests."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from ._lazy import np

from .connectivity import ConnectivityMatrix, TwinCohort, _default_labels
from .errors import DataError, ValidationError

# ASCII separators that numpy's float parser strips as whitespace and
# float() rejects.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def read_matrix_csv(path, labels=None) -> ConnectivityMatrix:
    """Read a square numeric CSV, with an optional first header row of node
    labels (detected when any first-row token is non-numeric). Labels, when
    given, must equal the header of a file that has one; they default to
    the header, else V1..Vp. ConnectivityMatrix validates the values and a
    header before they are compared with the labels; its errors and a label
    conflict are raised as DataError with the path."""
    path = Path(path)
    header, values = _read_table(path)
    try:
        matrix = ConnectivityMatrix(
            header or labels or _default_labels(len(values)), values)
        if labels is not None and tuple(labels) != matrix.labels:
            if len(labels) != matrix.p:
                raise ValidationError(f"{len(labels)} labels for {matrix.p} nodes")
            i = [h == k for h, k in zip(matrix.labels, labels)].index(False)
            raise ValidationError(f"header has {matrix.labels[i]!r} at position "
                                  f"{i}, the labels {labels[i]!r}")
    except ValidationError as err:
        raise DataError(f"{path}: {err}") from err
    return matrix


def write_matrix_csv(matrix, path) -> None:
    """Write a labeled square matrix as CSV with full round-trip precision."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(matrix.labels)
            # csv writes each Python float by its repr
            writer.writerows(np.asarray(matrix.values).tolist())
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


def _is_float(tok) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _header(row):
    """The node labels of a first row with a token float() rejects, else
    None."""
    if all(map(_is_float, row)):
        return None
    return tuple(map(str.strip, row))


def _read_table(path):
    """The header labels (or None) and the float64 values of a square CSV.

    numpy's C parser reads the body in one call when it can. Any other file
    is read again by csv.reader and parsed by _parse_rows, which diagnoses
    every error; the two routes give the same labels and value bytes."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            table = _read_with_loadtxt(fh)
        if table is None:
            with path.open(newline="", encoding="utf-8") as fh:
                rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    return table or _parse_rows(path, rows)


def _parse_rows(path, rows):
    """The labels and values of csv.reader's non-empty rows, each token read
    by Python's float rules."""
    if not rows:
        raise DataError(f"{path}: empty file")
    labels = _header(rows[0])
    if labels is not None:
        rows = rows[1:]

    p = len(rows)
    if p == 0:
        raise DataError(f"{path}: header but no data rows")
    short = next((r for r, row in enumerate(rows) if len(row) != p), p)
    try:
        # numpy parses each str with Python's float rules
        values = np.array(rows[:short], dtype=np.float64)
    except ValueError:
        r, c, tok = next((r, c, tok) for r, row in enumerate(rows, 1)
                         for c, tok in enumerate(row, 1) if not _is_float(tok))
        raise DataError(f"{path}: cannot parse {tok!r} as a number at row "
                        f"{r}, column {c}") from None
    if short < p:
        raise DataError(
            f"{path}: row {short + 1} has {len(rows[short])} columns, "
            f"expected {p} (matrix must be square)")
    return labels, values


def _read_with_loadtxt(fh):
    """The labels and values of a file that numpy's C parser reads exactly
    as the csv route would, or None for any other file.

    The file object splits the lines, as it does for csv.reader, and
    csv.reader reads the first row. np.loadtxt then parses the body's lines
    in one call, with no str per cell. On an ASCII token it gives float()'s
    double or rejects it ('1_0', '"1"', '#'), except that it also strips
    _NOT_FLOAT_SPACE. Left to the csv route: non-ASCII text, those four
    characters, a line longer than the csv field limit, a body with no rows
    (on which numpy warns), a ragged or non-square body, and non-finite
    values."""
    try:
        lines = fh.readlines()
        reader = csv.reader(lines)
        first = next(filter(None, reader), None)
        if first is None:
            return None
        labels = _header(first)
        if labels is not None:
            lines = lines[reader.line_num:]
        body = "".join(lines)
        if (not body.isascii() or any(ch in body for ch in _NOT_FLOAT_SPACE)
                or not body.strip()
                or max(map(len, lines)) > csv.field_size_limit()):
            return None
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if values.shape[0] != values.shape[1] or not np.isfinite(values).all():
        return None
    return labels, values


@dataclass(frozen=True)
class CohortManifest:
    """Paths to paired twin matrices: {"pairs": [{"a": ..., "b": ...}, ...]}
    with an optional "labels_from" matrix path."""

    pairs: tuple[tuple[Path, Path], ...]
    labels_from: Path | None = None

    @classmethod
    def load(cls, path) -> "CohortManifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise DataError(f"cannot read {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise DataError(f"{path}: invalid JSON: {err}") from err
        if not isinstance(doc, dict) or "pairs" not in doc:
            raise DataError(f"{path}: manifest must be an object with 'pairs'")
        raw_pairs = doc["pairs"]
        if not isinstance(raw_pairs, list) or len(raw_pairs) < 3:
            raise DataError(f"{path}: need at least 3 pairs, got "
                            f"{len(raw_pairs) if isinstance(raw_pairs, list) else 'non-list'}")
        base = path.parent
        pairs = []
        for k, item in enumerate(raw_pairs):
            if not (isinstance(item, dict)
                    and all(isinstance(item.get(key), str) for key in "ab")):
                raise DataError(
                    f"{path}: pairs[{k}] must have 'a' and 'b' path strings")
            pairs.append((base / item["a"], base / item["b"]))
        labels_from = doc.get("labels_from")
        if labels_from is not None and not isinstance(labels_from, str):
            raise DataError(f"{path}: 'labels_from' must be a path string")
        labels_from = base / labels_from if labels_from else None
        return cls(pairs=tuple(pairs), labels_from=labels_from)

    def load_cohort(self) -> TwinCohort:
        labels = None
        if self.labels_from is not None:
            labels = read_matrix_csv(self.labels_from).labels
        pairs = []
        for pa, pb in self.pairs:
            pair = []
            for path in (pa, pb):
                try:
                    pair.append(read_matrix_csv(path, labels))
                except DataError as err:
                    if labels is None:
                        raise
                    read_matrix_csv(path)  # the file's own errors come first
                    # past them, only the label count or the header can fail
                    raise DataError(f"{path}: labels from "
                                    f"{self.labels_from}: {err.__cause__}") from err
            pairs.append(tuple(pair))
        try:
            return TwinCohort(pairs=tuple(pairs))
        except ValidationError as err:
            raise DataError(f"inconsistent cohort: {err}") from err

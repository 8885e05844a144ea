"""CSV connectivity-matrix files and JSON cohort manifests."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .connectivity import ConnectivityMatrix, TwinCohort, _default_labels
from .errors import DataError, ValidationError


def read_matrix_csv(path) -> ConnectivityMatrix:
    """Read a square numeric CSV, with an optional first header row of node
    labels (detected when any first-row token is non-numeric). Labels
    default to V1..Vp; ConnectivityMatrix validates the values, and its
    errors are raised as DataError with the path."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    if not rows:
        raise DataError(f"{path}: empty file")

    def _numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    labels = None
    if not all(map(_numeric, rows[0])):
        labels = tuple(tok.strip() for tok in rows[0])
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
                         for c, tok in enumerate(row, 1) if not _numeric(tok))
        raise DataError(f"cannot parse {tok!r} as a number at row {r}, "
                        f"column {c}") from None
    if short < p:
        raise DataError(
            f"{path}: row {short + 1} has {len(rows[short])} columns, "
            f"expected {p} (matrix must be square)")
    try:
        return ConnectivityMatrix(labels or _default_labels(p), values)
    except ValidationError as err:
        raise DataError(f"{path}: {err}") from err


def write_matrix_csv(matrix, path) -> None:
    """Write a labeled square matrix as CSV with full round-trip precision."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(matrix.labels)
            for row in np.asarray(matrix.values):
                writer.writerow([repr(float(v)) for v in row])
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


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
            ma = read_matrix_csv(pa)
            mb = read_matrix_csv(pb)
            if labels is not None:
                try:
                    ma = ConnectivityMatrix(labels=labels, values=ma.values)
                    mb = ConnectivityMatrix(labels=labels, values=mb.values)
                except ValidationError as err:
                    raise DataError(
                        f"{pa}, {pb}: labels from {self.labels_from}: {err}"
                    ) from err
            pairs.append((ma, mb))
        try:
            return TwinCohort(pairs=tuple(pairs))
        except ValidationError as err:
            raise DataError(f"inconsistent cohort: {err}") from err

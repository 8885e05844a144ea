"""Every input file combinf reads: CSV connectivity matrices, JSON cohort
manifests and JSON simulation configs; and the matrix CSVs it writes."""

from __future__ import annotations

import codecs
import csv
import json
from pathlib import Path

from ._lazy import np, orjson

from .connectivity import ConnectivityMatrix, TwinCohort, _default_labels
from .errors import DataError, ValidationError

def read_matrix_csv(path, labels=None) -> ConnectivityMatrix:
    """Read a square numeric CSV, with an optional first header row of node
    labels (detected when any first-row token is non-numeric). The nodes
    take the header, else labels when there is one label per row, else
    V1..Vp. ConnectivityMatrix validates the values under them; its errors
    are raised as DataError with the path."""
    path = Path(path)
    header, values = _read_table(path)
    if header is None:
        header = (labels if labels is not None and len(labels) == len(values)
                  else _default_labels(len(values)))
    try:
        return ConnectivityMatrix(header, values)
    except ValidationError as err:
        raise DataError(f"{path}: {err}") from err


def read_json(path, name=""):
    """The document of a UTF-8 JSON file, a leading byte-order mark dropped;
    name ("config ") names the kind of file in a read error, which spells
    the path as Path(path) does."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {name}{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: invalid JSON: {err}") from err


def read_cohort(path) -> TwinCohort:
    """The twin pairs of a JSON cohort manifest,
    {"pairs": [{"a": ..., "b": ...}, ...]} with an optional "labels_from"
    matrix path, each path relative to the manifest's directory.

    The whole manifest is checked before any matrix is read, and each file
    is read once. With labels_from, a pair file without a header takes its
    labels; a pair file is validated first, under its header, those labels
    or V1..Vp, and then its labels must equal them."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise DataError(f"{path}: manifest must be an object with 'pairs'")
    raw_pairs = doc["pairs"]
    if not isinstance(raw_pairs, list) or len(raw_pairs) < 3:
        raise DataError(f"{path}: need at least 3 pairs, got "
                        f"{len(raw_pairs) if isinstance(raw_pairs, list) else 'non-list'}")
    base = path.parent
    for k, item in enumerate(raw_pairs):
        # an empty path would name the manifest's own directory
        if not (isinstance(item, dict) and all(
                isinstance(item.get(key), str) and item[key] for key in "ab")):
            raise DataError(f"{path}: pairs[{k}] must have 'a' and 'b' "
                            "non-empty path strings")
    labels_from = doc.get("labels_from")
    if labels_from is not None and not (isinstance(labels_from, str)
                                        and labels_from):
        raise DataError(
            f"{path}: 'labels_from' must be a non-empty path string")
    labels = (None if labels_from is None
              else read_matrix_csv(base / labels_from).labels)

    def read(pair_path):
        matrix = read_matrix_csv(pair_path, labels)
        if labels is None or matrix.labels == labels:
            return matrix
        if len(labels) != matrix.p:
            conflict = f"{len(labels)} labels for {matrix.p} nodes"
        else:
            i = [h == k for h, k in zip(matrix.labels, labels)].index(False)
            conflict = (f"header has {matrix.labels[i]!r} at position {i}, "
                        f"the labels {labels[i]!r}")
        raise DataError(
            f"{pair_path}: labels from {base / labels_from}: {conflict}")

    pairs = tuple((read(base / item["a"]), read(base / item["b"]))
                  for item in raw_pairs)
    try:
        return TwinCohort(pairs=pairs)
    except ValidationError as err:
        raise DataError(f"inconsistent cohort: {err}") from err


def write_matrix_csv(matrix, path) -> None:
    """Write a ConnectivityMatrix as CSV with full round-trip precision.

    csv.writer writes the labels, which may need quoting. Each body row is
    its floats' reprs joined by commas, the bytes csv.writer would write,
    since a repr never needs quoting. The values are exactly symmetric, so
    the repr of each upper-triangle cell is made once and mirrored: the
    bytes of formatting every cell, from half the conversions."""
    p = matrix.p
    upper = matrix.values[~np.tri(p, k=-1, dtype=bool)]
    text = np.array(list(map(repr, upper.tolist())), dtype=object)
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(matrix.labels)
            fh.writelines(",".join(row) + "\r\n"
                          for row in _mirrored(text, p).tolist())
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

    The file's bytes are read once. Bytes that are not all ASCII are decoded
    in one call, a leading byte-order mark dropped, only to report the
    position of a byte that is not UTF-8, counted from after the mark when
    there is one. One numpy scan finds the offset of every byte up to ','
    in code order (low) and the byte there (kind): the control characters,
    '\\n' and '\\r' among them, the space, '!' to '+', and ','. It gives the
    line ends ('\\n', '\\r\\n' and a lone '\\r', where a text file ends a
    line), from which csv.reader is handed lines decoded one at a time; it
    reads the first non-empty row, the header when _header says so. orjson's
    number reader reads the body, the lines past the header, in one call
    when it can, checked from the same scan (_json_body); on any other body
    the same reader reads on, and _parse_rows diagnoses every error. The two
    routes give the same labels and value bytes."""
    try:
        data = path.read_bytes()
        bom = data.startswith(codecs.BOM_UTF8)
        if not data.isascii():
            data.decode("utf-8-sig")  # raises at the first bad byte
        raw = np.frombuffer(data, np.uint8)
        low = np.flatnonzero(raw <= ord(","))
        kind = raw[low]
        bounds = _line_bounds(data, low, kind,
                              len(codecs.BOM_UTF8) if bom else 0)
        reader = csv.reader(data[a:b].decode()
                            for a, b in zip(bounds, bounds[1:]))
        first = next(filter(None, reader), None)
        if first is None:
            raise DataError(f"{path}: empty file")
        labels = _header(first)
        head = 0 if labels is None else reader.line_num
        rows = [first] if labels is None else []
        k = np.searchsorted(low, bounds[head])
        values = _json_body(data, bounds[head:], low[k:], kind[k:])
        if values is None:
            rows += filter(None, reader)
    except UnicodeDecodeError as err:
        after = " (position counted after the byte-order mark)" if bom else ""
        raise DataError(f"cannot read {path}: {err}{after}") from err
    except (OSError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    return labels, _parse_rows(path, rows) if values is None else values


def _line_bounds(data, low, kind, start):
    """The offset of each line of data from start, then the offset past the
    last, given the bytes kind at the offsets low, all of data's bytes up
    to ','. A line ends at '\\n', '\\r\\n' or a lone '\\r', as
    bytes.splitlines ends one."""
    cr = low[kind == ord("\r")]
    # the byte after each '\r', or the '\r' itself at the end of data
    after = np.frombuffer(data, np.uint8)[np.minimum(cr + 1, len(data) - 1)]
    ends = np.concatenate((low[kind == ord("\n")], cr[after != ord("\n")]))
    ends.sort()
    bounds = [start, *(ends + 1).tolist()]
    if bounds[-1] < len(data):
        bounds.append(len(data))
    return bounds


def _parse_rows(path, rows):
    """The values of csv.reader's non-empty body rows, each token read by
    Python's float rules."""
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
    return values


def _json_body(data, bounds, low, kind):
    """The values of the body, the lines data[bounds[k]:bounds[k + 1]] with
    the bytes kind at the offsets low, all of its bytes up to ',', that
    _json_numbers reads exactly as the csv route would, or None for any
    other body.

    The tokens are read in one call, with no str per cell: only the upper
    triangle of a body whose mirrored tokens are the same bytes
    (_upper_triangle_text), whose values are then mirrored, else the p
    lines that are not blank, which csv.reader skips, when each has p - 1
    commas. Left to the csv route: a body _json_numbers declines, a line
    longer than the csv field limit, a body with no rows, and a ragged or
    non-square one."""
    p = len(bounds) - 1
    if (p == 0 or max(b - a for a, b in zip(bounds, bounds[1:]))
            > csv.field_size_limit()):
        return None
    text = _upper_triangle_text(data, bounds, low, kind)
    if text is not None:
        values = _json_numbers(text, p * (p + 1) // 2)
        return None if values is None else _mirrored(values, p)
    lines = (data[a:b] for a, b in zip(bounds, bounds[1:]))
    rows = [line for line in lines if line.strip(b"\r\n")]
    p = len(rows)
    if p == 0 or any(row.count(b",") != p - 1 for row in rows):
        return None
    values = _json_numbers(b",".join(rows), p * p)
    return None if values is None else values.reshape(p, p)


def _json_numbers(text, size):
    """The size float64 values of text, comma-separated numbers, or None
    when orjson does not read it as exactly size numbers that float() reads
    alike.

    orjson reads a JSON number, whitespace around it allowed, to float()'s
    correctly rounded double, and rejects what float() reads and JSON does
    not ('nan', '1e400', '+1', '.5', '1.', '01', form feeds, characters that
    are not ASCII), so the csv route reads those. A JSON text may hold more
    than numbers: a string holds a '"', and true, false and null each hold
    an 'l' or a 'u', which no number does; an array or an object does not
    give size float64 values. The integer '-0' reads as 0 where float() gives
    -0.0: every '-' not after an exponent's 'e' signs a token, and each signed
    token must give a value with the sign bit set."""
    if b'"' in text or b"l" in text or b"u" in text:
        return None
    doc = b"[" + text + b"]"
    try:
        values = np.array(orjson.loads(doc), dtype=np.float64)
    except (ValueError, TypeError):
        return None
    if values.shape != (size,):
        return None
    if not values.all():
        raw = np.frombuffer(doc, np.uint8)
        before = raw[np.flatnonzero(raw == ord("-")) - 1] | 0x20  # lower case
        if (np.count_nonzero(before != ord("e"))
                != np.count_nonzero(np.signbit(values))):
            return None
    return values


def _upper_triangle_text(data, bounds, low, kind):
    """Tokens (i, j), j >= i, of a body in row-major order, joined by
    commas, when the body, the p lines data[bounds[k]:bounds[k + 1]] with
    the bytes kind at the offsets low, all of its bytes up to ',', has p
    comma-separated tokens on each line, each line ended by '\\n' or
    '\\r\\n', and token (j, i) has the bytes of token (i, j) for every
    i < j; else None.

    Equal bytes parse to the same double or fail alike, so parsing these
    tokens gives every value of the full parse, or its failure, in
    p(p+1)/2 conversions instead of p**2."""
    p = len(bounds) - 1
    # Row 0 against column 0 first, in O(p), so that a matrix symmetric only
    # within a tolerance is turned away before the passes over low.
    if p > 1:
        cuts = [data.find(b",", a, b) for a, b in zip(bounds[1:], bounds[2:])]
        row = data[bounds[0]:bounds[1]].rstrip(b"\r\n").split(b",")[1:]
        if -1 in cuts or row != [data[a:c]
                                 for a, c in zip(bounds[1:], cuts)]:
            return None
    raw = np.frombuffer(data, np.uint8)
    seps = low[(kind == ord(",")) | (kind == ord("\n"))]
    # A line ended by a lone '\r', or by the end of data, holds no '\n'. So
    # when each row's p-th separator is a '\n', each of the p lines ends at
    # '\n' or '\r\n', and the other separators are commas.
    if seps.size != p * p or not (raw[seps[p - 1::p]] == ord("\n")).all():
        return None
    starts = np.empty_like(seps)
    starts[0] = bounds[0]
    starts[1:] = seps[:-1] + 1
    starts = starts.reshape(p, p)
    ends = seps.reshape(p, p)
    ends[:, -1] -= raw[ends[:, -1] - 1] == ord("\r")  # before a "\r\n"
    if not _mirror_tokens_equal(data, starts, ends - starts):
        return None
    return b",".join(data[a:b] for a, b in zip(starts.diagonal().tolist(),
                                              ends[:, -1].tolist()))


def _mirror_tokens_equal(data, starts, lengths):
    """Whether token (j, i) has the bytes of token (i, j) for all i < j, the
    p x p tokens of data having the offsets starts and the lengths lengths.

    The lengths against their transpose first; then token (j, i), j > i,
    against token (i, j), one token length at a time: the stable sort of
    16-bit lengths is a radix sort, and the tokens of one length are items
    of a sliding window of that many bytes."""
    if not (lengths == lengths.T).all() or lengths.max() >= 2**16:
        return False
    lower = np.tri(len(lengths), k=-1, dtype=bool)
    sizes = lengths[lower].astype(np.uint16)
    order = np.argsort(sizes, kind="stable")
    below, above = starts[lower][order], starts.T[lower][order]
    hi = 0
    for size, count in enumerate(np.bincount(sizes).tolist()):
        lo, hi = hi, hi + count
        if size and count:
            tokens = np.ndarray((len(data) - size + 1,), f"V{size}", data, 0,
                                (1,))
            if tokens[below[lo:hi]].tobytes() != tokens[above[lo:hi]].tobytes():
                return False
    return True


def _mirrored(upper, p):
    """The symmetric p x p array whose upper triangle, diagonal included, is
    the 1-D array upper in row-major order."""
    values = np.empty((p, p), upper.dtype)
    mask = ~np.tri(p, k=-1, dtype=bool)
    values[mask] = upper
    values.T[mask] = upper
    return values

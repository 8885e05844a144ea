"""Command-line front end.

Each subcommand is one entry of `_SUBCOMMANDS`: its help text and the
function that adds its arguments and returns its `cmd_*`. A command line
builds the parser of its own subcommand only (`build_parser`).

Exit codes: 0 success, 1 usage or parameter validation, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from . import exact, mst, simulation, svgplot
from .connectivity import heritability_index, twin_edgewise_correlation
from .errors import DataError, ValidationError
from .matrixio import (read_cohort, read_json, read_matrix_csv,
                       write_matrix_csv)

_MODE_MAP = {
    "distance": mst.WeightMode.DISTANCE,
    "one-minus": mst.WeightMode.ONE_MINUS_SIMILARITY,
    "max-tree": mst.WeightMode.MAX_TREE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _format_pvalue(pv: Fraction) -> str:
    # Decimal prints integers of any length; str() of an int refuses more
    # than sys.get_int_max_str_digits() digits, which C(2q, q) passes at
    # q ~ 7140. These integers are computed here, not read from input.
    num, den = Decimal(pv.numerator), Decimal(pv.denominator)
    if 0 < pv and float(pv) < sys.float_info.min:
        # A subnormal double holds fewer than 6 digits, and none below about
        # 2.5e-324: round the exact quotient instead, in %.6g's notation.
        six = Context(prec=6).divide(num, den)
        exp = six.adjusted()
        shown = f"{six.scaleb(-exp).normalize()}e{exp:+03d}"
    else:
        shown = f"{float(pv):.6g}"
    return f"{shown} (exact {num}/{den})"


def cmd_pvalue(args) -> int:
    pv = exact.exact_pvalue(args.q, args.d)
    print(f"P(D_{args.q} >= {args.d}) = {_format_pvalue(pv)}")
    return 0


def _float_option(valid, rule):
    """An argparse type: a float that valid() accepts, else 'rule, got x'."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    return parse


_center = _float_option(lambda c: abs(c) < float("inf"), "center must be finite")
_radius = _float_option(lambda r: r >= 0, "radius must be >= 0")


def _write_step_csv(path, curve_a, curve_b, label_a, label_b) -> None:
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "weight", "edges_added"])
            for label, curve in ((label_a, curve_a), (label_b, curve_b)):
                for w, c in curve:
                    writer.writerow([label, repr(float(w)), c])
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


def _forests(ma, mb, mode, name_a, name_b):
    """The spanning forests of two matrices, which must have the same,
    nonzero number of edges to be compared."""
    forest_a = mst.mst_from_connectivity(ma, mode)
    forest_b = mst.mst_from_connectivity(mb, mode)
    # distance mode leaves out zero entries, so a graph can be disconnected
    if (forest_a.component_count != forest_b.component_count
            or not forest_a.weights.size):
        raise DataError(
            "spanning forests need the same, nonzero number of edges: "
            f"{name_a} has {forest_a.component_count} component(s), "
            f"{name_b} has {forest_b.component_count} component(s)")
    return forest_a, forest_b


def _compare_report(forest_a, forest_b, name_a, name_b, localize_center=None,
                    localize_radius=None, svg=None, csv_out=None) -> int:
    weights_a, weights_b = forest_a.weights, forest_b.weights
    res, pv = mst.compare_msts(weights_a, weights_b)
    print(f"q = {res.q}")
    print(f"D = {res.d} at weight {res.argmax_location:.6g}")
    print(f"p-value = {_format_pvalue(pv)}")
    if res.ties_absorbed:
        print("warning: tied weights across sequences were absorbed; "
              "exactness assumes tie-free data", file=sys.stderr)
    curve_a = mst.growth_curve(weights_a)
    curve_b = mst.growth_curve(weights_b)
    if localize_center is not None:
        radius = localize_radius if localize_radius is not None else 0.0
        nodes = mst.localize_nodes(forest_a, forest_b, localize_center, radius)
        print(f"nodes within {radius:.6g} of weight {localize_center:.6g}:")
        for label in nodes:
            print(f"  {label}")
    if svg:
        svgplot.write_growth_curve_svg(svg, curve_a, curve_b, name_a, name_b,
                                       marker_weight=res.argmax_location)
    if csv_out:
        _write_step_csv(csv_out, curve_a, curve_b, name_a, name_b)
    return 0


def _file_label(path) -> str:
    """A file's stem as a plot and CSV label: bytes the file system could
    not decode become U+FFFD, so the label can be written as UTF-8."""
    stem = os.fsencode(Path(path).stem)
    return stem.decode(sys.getfilesystemencoding(), "replace")


def _check_same_labels(labels_a, labels_b, name_a, name_b) -> None:
    """Raise DataError unless two matrices have the same node labels in the
    same order, naming the first differing position when the labels are
    the same in another order, else the labels found on one side only."""
    if labels_a == labels_b:
        return
    only_a = sorted(set(labels_a) - set(labels_b))
    only_b = sorted(set(labels_b) - set(labels_a))
    if not only_a and not only_b:
        i = next(i for i, (a, b) in enumerate(zip(labels_a, labels_b)) if a != b)
        raise DataError(
            f"node labels differ in order: position {i} is "
            f"{labels_a[i]!r} in {name_a} and {labels_b[i]!r} in {name_b}")
    raise DataError(f"node labels differ (only in {name_a}: {only_a[:5]}, "
                    f"only in {name_b}: {only_b[:5]})")


def cmd_compare(args) -> int:
    ma = read_matrix_csv(args.matrix_a)
    mb = read_matrix_csv(args.matrix_b)
    if ma.p != mb.p:
        raise DataError(f"matrix dimensions differ: {ma.p} vs {mb.p}")
    _check_same_labels(ma.labels, mb.labels, "A", "B")
    name_a, name_b = _file_label(args.matrix_a), _file_label(args.matrix_b)
    return _compare_report(
        *_forests(ma, mb, _MODE_MAP[args.mode], name_a, name_b),
        name_a, name_b, localize_center=args.localize_center,
        localize_radius=args.localize_radius,
        svg=args.svg, csv_out=args.csv)


def _output_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DataError(f"cannot create output directory {out}: {err}") from err
    return out


def _twin_map(manifest, symmetrize):
    """One cohort's twin map, loaded and correlated alone; each degenerate
    edge is reported on one stderr line."""
    c, degenerate = twin_edgewise_correlation(read_cohort(manifest),
                                              symmetrize=symmetrize)
    for a, b in degenerate:
        print(f"warning: edge ({a}, {b}) is constant across pairs; "
              "correlation set to 0", file=sys.stderr)
    return c


def cmd_heritability(args) -> int:
    c_mz = _twin_map(args.mz, args.symmetrize)
    c_dz = _twin_map(args.dz, args.symmetrize)
    _check_same_labels(c_mz.labels, c_dz.labels, "MZ", "DZ")
    hi = heritability_index(c_mz, c_dz)
    # Both trees are checked before anything is written, so a data error
    # leaves no output.
    forests = _forests(c_mz, c_dz, mst.WeightMode.ONE_MINUS_SIMILARITY,
                       "MZ", "DZ")
    out = _output_dir(args.out)
    write_matrix_csv(c_mz, out / "C_MZ.csv")
    write_matrix_csv(c_dz, out / "C_DZ.csv")
    write_matrix_csv(hi, out / "HI.csv")
    print(f"wrote C_MZ.csv, C_DZ.csv, HI.csv to {out}")
    return _compare_report(*forests, "MZ", "DZ",
                           localize_center=args.localize_center,
                           localize_radius=args.localize_radius)


def cmd_simulate(args) -> int:
    cfg = simulation.SimulationConfig.from_json(
        read_json(args.config, "config "))
    out = _output_dir(args.out)

    def progress(label, done, total):
        print(f"\r{label}: {done}/{total}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

    report = simulation.run_experiment(cfg, progress=progress)
    table = report.to_text_table()
    try:
        (out / "report.json").write_text(report.to_json_text())
        (out / "report.txt").write_text(table)
    except OSError as err:
        raise DataError(f"cannot write report to {out}: {err}") from err
    print(table, end="")
    return 0


def _pvalue_arguments(p):
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    return cmd_pvalue


def _compare_arguments(p):
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--mode", choices=sorted(_MODE_MAP), default="distance")
    p.add_argument("--localize-center", type=_center, default=None)
    p.add_argument("--localize-radius", type=_radius, default=None)
    p.add_argument("--svg", default=None, help="write growth-curve plot")
    p.add_argument("--csv", default=None, help="write both step functions")
    return cmd_compare


def _heritability_arguments(p):
    p.add_argument("--mz", required=True, help="MZ cohort manifest (JSON)")
    p.add_argument("--dz", required=True, help="DZ cohort manifest (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--localize-center", type=_center, default=None)
    p.add_argument("--localize-radius", type=_radius, default=None)
    return cmd_heritability


def _simulate_arguments(p):
    p.add_argument("--config", required=True, help="SimulationConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    return cmd_simulate


# name -> (help text, a function that adds the subcommand's arguments to its
# parser and returns the function that runs it), in the order of -h.
_SUBCOMMANDS = {
    "pvalue": ("exact P(D_q >= d)", _pvalue_arguments),
    "compare": ("compare the spanning trees of two matrices", _compare_arguments),
    "heritability": ("twin heritability pipeline", _heritability_arguments),
    "simulate": ("modular-network benchmark", _simulate_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for one command line (None: sys.argv[1:]). It registers
    only the subcommand that argv[0] names, or every subcommand when argv[0]
    names none, so that -h and an unknown or missing command list them all;
    argparse then parses argv as it would with all of them registered."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _Parser(prog="combinf",
                     description="Exact combinatorial inference on MST shapes "
                                 "of connectivity networks")
    sub = parser.add_subparsers(dest="command", required=True)
    names = [argv[0]] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_text, add_arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=add_arguments(p))
    return parser


def main(argv=None) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if (getattr(args, "localize_radius", None) is not None
                and args.localize_center is None):
            parser.error("--localize-radius needs --localize-center")
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

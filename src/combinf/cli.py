"""Command-line front end.

Exit codes: 0 success, 1 usage or parameter validation, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import exact, mst, simulation, svgplot
from .connectivity import (DegenerateEdgeWarning, heritability_index,
                           twin_edgewise_correlation)
from .errors import DataError, ValidationError
from .matrixio import CohortManifest, read_matrix_csv, write_matrix_csv

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
    return (f"{float(pv):.6g} (exact {Decimal(pv.numerator)}/"
            f"{Decimal(pv.denominator)})")


def cmd_pvalue(args) -> int:
    pv = exact.exact_pvalue(args.q, args.d)
    print(f"P(D_{args.q} >= {args.d}) = {_format_pvalue(pv)}")
    return 0


def _radius(text: str) -> float:
    """--localize-radius: a float >= 0, checked before any output."""
    try:
        radius = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not radius >= 0:
        raise argparse.ArgumentTypeError(f"radius must be >= 0, got {radius}")
    return radius


def _write_step_csv(path, curve_a, curve_b, label_a, label_b) -> None:
    try:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "weight", "edges_added"])
            for label, curve in ((label_a, curve_a), (label_b, curve_b)):
                for w, c in curve:
                    writer.writerow([label, repr(float(w)), c])
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


def _compare_report(ma, mb, mode, name_a, name_b, localize_center=None,
                    localize_radius=None, svg=None, csv_out=None) -> int:
    forest_a = mst.mst_from_connectivity(ma, mode)
    forest_b = mst.mst_from_connectivity(mb, mode)
    # distance mode leaves out zero entries, so a graph can be disconnected
    if (forest_a.component_count != forest_b.component_count
            or not forest_a.weights.size):
        raise DataError(
            "spanning forests need the same, nonzero number of edges: "
            f"{name_a} has {forest_a.component_count} component(s), "
            f"{name_b} has {forest_b.component_count} component(s)")
    weights_a, weights_b = forest_a.weights, forest_b.weights
    with warnings.catch_warnings():
        # reported once, below, without the library warning's source line
        warnings.simplefilter("ignore", exact.TieWarning)
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


def cmd_compare(args) -> int:
    ma = read_matrix_csv(args.matrix_a)
    mb = read_matrix_csv(args.matrix_b)
    if ma.p != mb.p:
        raise DataError(f"matrix dimensions differ: {ma.p} vs {mb.p}")
    if ma.labels != mb.labels:
        only_a = sorted(set(ma.labels) - set(mb.labels))
        only_b = sorted(set(mb.labels) - set(ma.labels))
        raise DataError(
            f"node labels differ (only in A: {only_a[:5]}, only in B: {only_b[:5]})")
    return _compare_report(
        ma, mb, _MODE_MAP[args.mode],
        Path(args.matrix_a).stem, Path(args.matrix_b).stem,
        localize_center=args.localize_center,
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
    edge is reported on one stderr line, without the library warning's
    source line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateEdgeWarning)
        c = twin_edgewise_correlation(
            CohortManifest.load(manifest).load_cohort(), symmetrize=symmetrize)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return c


def cmd_heritability(args) -> int:
    c_mz = _twin_map(args.mz, args.symmetrize)
    c_dz = _twin_map(args.dz, args.symmetrize)
    if c_mz.labels != c_dz.labels:
        raise DataError("MZ and DZ cohorts have different node labels")
    hi = heritability_index(c_mz, c_dz)
    out = _output_dir(args.out)
    write_matrix_csv(c_mz, out / "C_MZ.csv")
    write_matrix_csv(c_dz, out / "C_DZ.csv")
    write_matrix_csv(hi, out / "HI.csv")
    print(f"wrote C_MZ.csv, C_DZ.csv, HI.csv to {out}")
    return _compare_report(c_mz, c_dz, mst.WeightMode.ONE_MINUS_SIMILARITY,
                           "MZ", "DZ",
                           localize_center=args.localize_center,
                           localize_radius=args.localize_radius)


def cmd_simulate(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read config {args.config}: {err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"{args.config}: invalid JSON: {err}") from err
    cfg = simulation.SimulationConfig.from_json(doc)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="combinf",
                     description="Exact combinatorial inference on MST shapes "
                                 "of connectivity networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvalue", help="exact P(D_q >= d)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("compare", help="compare the spanning trees of two matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--mode", choices=sorted(_MODE_MAP), default="distance")
    p.add_argument("--localize-center", type=float, default=None)
    p.add_argument("--localize-radius", type=_radius, default=None)
    p.add_argument("--svg", default=None, help="write growth-curve plot")
    p.add_argument("--csv", default=None, help="write both step functions")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heritability", help="twin heritability pipeline")
    p.add_argument("--mz", required=True, help="MZ cohort manifest (JSON)")
    p.add_argument("--dz", required=True, help="DZ cohort manifest (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--localize-center", type=float, default=None)
    p.add_argument("--localize-radius", type=_radius, default=None)
    p.set_defaults(func=cmd_heritability)

    p = sub.add_parser("simulate", help="modular-network benchmark")
    p.add_argument("--config", required=True, help="SimulationConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

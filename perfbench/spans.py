"""Spans recorded by the benchmark around calls into combinf's public
functions, and the per-layer metrics derived from them.

``Tracer.install`` replaces each function below, in every combinf module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent, attributes); ``uninstall`` puts the originals back. The
program's source is not changed. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, function, attributes taken from the arguments and the result)
TRACED = [
    ("cli", "main", None),
    ("simulation", "run_experiment", None),
    ("simulation", "simulate_modular_pair", None),
    ("simulation", "run_combinatorial_trial", None),
    ("simulation", "permutation_test", None),
    ("_kernels", "permutation_null",
     lambda args, out: {"relabelings": int(args[1].shape[0])}),
    ("matrixio", "read_matrix_csv",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    ("matrixio", "write_matrix_csv", None),
    ("connectivity", "pearson_correlation_matrix", None),
    ("connectivity", "twin_edgewise_correlation",
     lambda args, out: {"edges": out.p * (out.p - 1) // 2}),
    ("mst", "mst_from_connectivity", None),
    ("mst", "compare_msts", None),
    ("exact", "exact_pvalue", None),
    ("exact", "discrepancy",
     lambda args, out: {"ties": int(out.ties_absorbed)}),
    ("svgplot", "write_growth_curve_svg", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kw):
            sid = len(spans)
            span = {"id": sid, "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, out))
            return out
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "combinf" or key.startswith("combinf.")]
        for mod_name, fn_name, attrs in TRACED:
            original = getattr(sys.modules[f"combinf.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one batch's spans. Times are inclusive span
    durations, except ``*self_s``: a span's duration minus its children's."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    attr = defaultdict(int)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        self_time[s["name"]] += dur
        count[s["name"]] += 1
        if s["parent"] is not None:
            self_time[by_id[s["parent"]]["name"]] -= dur
        for key in ("relabelings", "bytes", "edges", "ties"):
            attr[(s["name"], key)] += s.get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    null_s = total["_kernels.permutation_null"]
    relabelings = attr[("_kernels.permutation_null", "relabelings")]
    read_s = total["matrixio.read_matrix_csv"]
    twin_s = total["connectivity.twin_edgewise_correlation"]
    return {
        "kernels.null_s": null_s,
        "kernels.relabelings": relabelings,
        "kernels.ms_per_relabeling": per(1000.0 * null_s, relabelings),
        "simulation.generate_s": total["simulation.simulate_modular_pair"],
        "simulation.comb_trial_s": total["simulation.run_combinatorial_trial"],
        "simulation.perm_self_s": self_time["simulation.permutation_test"],
        "simulation.trials": count["simulation.run_combinatorial_trial"],
        "matrixio.read_s": read_s,
        "matrixio.read_mib_per_s": per(
            attr[("matrixio.read_matrix_csv", "bytes")] / 2**20, read_s),
        "matrixio.files_read": count["matrixio.read_matrix_csv"],
        "matrixio.write_s": total["matrixio.write_matrix_csv"],
        "matrixio.files_written": count["matrixio.write_matrix_csv"],
        "connectivity.pearson_s": total["connectivity.pearson_correlation_matrix"],
        "connectivity.twin_corr_s": twin_s,
        "connectivity.twin_edges_per_s": per(
            attr[("connectivity.twin_edgewise_correlation", "edges")], twin_s),
        "mst.build_s": total["mst.mst_from_connectivity"],
        "mst.builds": count["mst.mst_from_connectivity"],
        "mst.compare_s": total["mst.compare_msts"],
        "exact.pvalue_s": total["exact.exact_pvalue"],
        "exact.pvalue_calls": count["exact.exact_pvalue"],
        "exact.discrepancy_s": total["exact.discrepancy"],
        "exact.ties_absorbed": attr[("exact.discrepancy", "ties")],
        "svgplot.write_s": total["svgplot.write_growth_curve_svg"],
        "cli.self_s": self_time["cli.main"],
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("ms_per_relabeling"):
        return "ms"
    if metric.endswith("_per_s"):
        return "MiB/s" if metric.startswith("matrixio.") else "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"

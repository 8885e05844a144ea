"""Benchmark of combinf's command-line workflows.

Runs one workload's fixed batch of `combinf` command lines in this process,
again and again for --seconds, checks every answer against independent
computations, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 12 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mib); --trace 1 alternates untraced and traced batches and reports
the per-layer metrics plus the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 3             # fresh interpreters timed for setup_s per run
PROBE_TIMEOUT_S = 120  # one probe's set-up plus one batch


def limit_threads() -> int:
    """Cap the BLAS/OpenMP thread pools at the CPUs this process may use.
    Must run before numpy is imported; probes inherit the environment."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:  # no /proc: report nothing rather than guess
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Run:
    """One command line and what it returned."""

    argv: list[str]
    rc: int
    stdout: str
    stderr: str


def invoke(cli_module, argv) -> Run:
    """One `combinf` command line, as cli.main runs it, output captured. An
    exception escaping cli.main is a failed operation (exit code -1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_module.main(argv)
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return Run(argv, rc, out.getvalue(), err.getvalue())


def digest(runs, outputs) -> str:
    """Hash of everything one batch produced, to require identical batches."""
    h = hashlib.sha256()
    for run in runs:
        h.update(f"{run.rc}\0{run.stdout}\0".encode())
    for path in outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def probe(workload, first: bool) -> tuple[float, dict]:
    """Start a fresh interpreter that imports combinf and runs the warm-up;
    return the seconds until it is ready. The first probe also runs one
    batch, for the peak resident memory of a whole workload run."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
           json.dumps(workload.warmup), json.dumps(workload.batch if first else [])]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe failed (exit {proc.returncode}): {line}{rest}")
    info = json.loads(rest.splitlines()[-1])
    if any(info["rcs"]):
        raise RuntimeError(f"probe command lines failed: exit codes {info['rcs']}")
    return setup, info


def measure(workload, seconds: float, traced: bool, cli_module):
    """Run whole batches until ``seconds`` have passed (at least two).
    Traced runs alternate untraced and traced batches."""
    tracer = spans.Tracer() if traced else None
    batches = []
    start = time.perf_counter()
    while len(batches) < 2 or time.perf_counter() - start < seconds:
        with_trace = traced and len(batches) % 2 == 1
        for path in workload.outputs:
            path.unlink(missing_ok=True)
        first_span = len(tracer.spans) if tracer else 0
        if with_trace:
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), cpu_seconds()
            runs = [invoke(cli_module, argv) for argv in workload.batch]
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        finally:
            if with_trace:
                tracer.uninstall()
        batches.append({"wall_s": wall, "cpu_s": cpu, "traced": with_trace,
                        "runs": runs, "digest": digest(runs, workload.outputs),
                        "layers": spans.layer_metrics(tracer.spans[first_span:])
                        if with_trace else None})
    return batches, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "compare", "heritability", "pvalue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_threads()
    if not (SRC / "combinf" / "__init__.py").is_file():
        print(f"error: combinf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import combinf
    from combinf import cli
    if not Path(combinf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported combinf from {combinf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.PREPARE[args.workload](args.seed, work)

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "kernel_backend": combinf.kernel_backend(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc,
           "thread_env": {var: os.environ[var] for var in THREAD_VARS},
           "blas_threads": blas_threads()}

    probes = [] if args.trace else [probe(workload, first=k == 0)
                                    for k in range(PROBES)]
    setups = [setup for setup, _ in probes]
    for warm in workload.warmup:
        invoke(cli, warm)
    batches, tracer = measure(workload, args.seconds, bool(args.trace), cli)

    runs = [run for batch in batches for run in batch["runs"]]
    failed = sum(run.rc != 0 for run in runs)
    try:
        problems = workload.check(batches[-1]["runs"])
    except Exception:
        problems = [f"check raised: {traceback.format_exc()}"]
    if len({batch["digest"] for batch in batches}) != 1:
        problems.append("batches of identical command lines gave different outputs")
    for run in runs:
        if run.rc != 0:
            print(f"failed (exit {run.rc}): {' '.join(run.argv)}\n{run.stderr}",
                  file=sys.stderr)

    def med(key, traced=False):
        return statistics.median(b[key] for b in batches if b["traced"] == traced)

    if args.trace:
        layers = [b["layers"] for b in batches if b["traced"]]
        values = {key: statistics.median(layer[key] for layer in layers)
                  for key in layers[0]}
        # Each traced batch (odd index) against the mean of its untraced
        # neighbours, so that drift in machine speed cancels.
        walls = [b["wall_s"] for b in batches]
        overhead = statistics.median(
            walls[i] - statistics.fmean(walls[i - 1:i + 2:2])
            for i in range(1, len(walls), 2))
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / med("wall_s")
        metrics = {}
        for key, value in values.items():
            unit = spans.unit_of(key)
            metrics[key] = {"value": round(value) if unit == "count" else value,
                            "unit": unit}
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "wall_s": {"value": med("wall_s"), "unit": "s"},
                   "cpu_s": {"value": med("cpu_s"), "unit": "s"},
                   "peak_rss_mib": {"value": probes[0][1]["maxrss_kib"] / 1024.0,
                                    "unit": "MiB"}}

    result = {"correct": not problems, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    record = dict(result, environment=env, problems=problems, setup_samples=setups,
                  batches=[{k: b[k] for k in ("wall_s", "cpu_s", "traced", "layers")}
                           for b in batches])
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

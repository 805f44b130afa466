#!/usr/bin/env python3
"""spectralham benchmark.

    python3 perfbench/run.py --workload {campaign,sweep,single_graph} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  The
benchmark process and its children use one BLAS thread.  BENCHMARK.json lists
campaign and single_graph; sweep stays runnable by hand (its per-graph layers
are also exercised by single_graph's certify requests).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over fresh processes that import spectralham and do the workload's
warm-up), graphs or requests per second, per-request latency and peak RSS.
Work runs in whole units (a campaign pass, a sweep, a 512-request block) until
the next unit would end past ``--seconds``, and never fewer than the
workload's minimum.  ``--trace 1`` runs the same units three times: untraced,
traced, untraced.  It reports the per-layer metrics of the traced pass and
the tracing overhead, traced wall time minus the mean of the two untraced
passes (the bracketing cancels a steady drift in machine speed), and writes
the spans to perfbench/traces/.

Outputs are checked after timing; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 5


def _setup_probe(workload: str) -> None:
    """Child process: time importing spectralham plus the workload's warm-up."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[workload].warm()
    print(time.perf_counter() - t0)


def _measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=HERE.parent,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def _run_units(w, seconds, min_units, count=None, tracer=None):
    """Run units until the next would end past ``seconds`` (or ``count`` units).

    Returns (latencies by request id, wall seconds, units run); input
    preparation is excluded from the wall time.
    """
    lat = {}
    unit_times = []
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and i >= min_units and sum(unit_times) + statistics.median(unit_times) > seconds:
            break
        w.prepare(i)
        t0 = time.perf_counter()
        lat.update(w.unit(i, tracer))
        unit_times.append(time.perf_counter() - t0)
        i += 1
    return lat, sum(unit_times), i


def _p99(samples):
    """The 99th percentile when at least ten samples lie beyond it, else the maximum."""
    if len(samples) >= 1000:
        return statistics.quantiles(samples, n=100)[98], "p99"
    return max(samples), "max"


def _environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        pass
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, blas threads {BLAS_THREADS} (OPENBLAS_NUM_THREADS/OMP_NUM_THREADS)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["campaign", "sweep", "single_graph"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "spectralham" / "__init__.py").is_file():
        print(f"error: the spectralham sources are missing ({SRC / 'spectralham'})", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    setup = _measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[args.workload](args.seed)
    w.warm()
    info = [_environment()]
    if args.trace == 0:
        lat, wall, units = _run_units(w, args.seconds, w.min_units)
        samples = list(lat.values())
        p99, p99_kind = _p99(samples)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "graphs_per_s": (w.graphs / wall, "1/s"),
            "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "latency_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        info.append(f"{units} units in {wall:.3f} s; latency over {len(samples)} successful "
                    f"requests, latency_p99_ms is the {p99_kind}; setup probes "
                    + " ".join(f"{s:.4f}" for s in setup))
        composition = w.composition(None)
    else:
        _, before, units = _run_units(w, args.seconds / 3, 1)
        tracer = Tracer()
        with tracer:
            lat, wall, _ = _run_units(w, None, 1, count=units, tracer=tracer)
        _, after, _ = _run_units(w, None, 1, count=units)
        plain_wall = (before + after) / 2
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write(span_file)
        layer = tracer.metrics(wall, lat, getattr(w, "kinds", {}))
        layer["trace.overhead_s"] = wall - plain_wall
        layer["trace.overhead_ratio"] = (wall - plain_wall) / plain_wall
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        info.append(f"{units} units untraced in {before:.3f} s and {after:.3f} s, traced in {wall:.3f} s; "
                    f"{len(tracer.spans)} spans written to {span_file.relative_to(HERE.parent)}")
        composition = w.composition(layer)
    problems = w.check()
    failed_ratio = w.failed / w.graphs
    listed = [m["name"] for m in json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(listed) - set(metrics))
    if missing:
        print(f"error: metrics listed in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2

    for line in info:
        print(f"# env: {line}")
    for line in composition:
        print(f"# composition: {line}")
    if args.workload == "single_graph":
        print(f"# check: verdict digest {w.digest} ({w.digest_status})")
    for line in problems[:20]:
        print(f"# MISMATCH: {line}")
    print(f"# metric failed_ratio = {failed_ratio:.6g} ratio ({w.failed} of {w.graphs})")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": w.graphs,
        "failed": w.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in listed},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if ".us_per_matrix." in name:
        return "us"
    if name.endswith(("_ratio", "_share", ".share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

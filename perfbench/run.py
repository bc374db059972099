"""heatframe benchmark: one closed-loop caller runs a workload in one process.

Run from the repository root:

    python3 perfbench/run.py --workload verify_large --seed 1 --seconds 30 --trace 0

The caller issues operations one after another through ``heatframe.cli.main``
and starts no threads of its own; the program's own thread pool and BLAS
threads behave as users get them.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs every operation untraced and
then traced and reports the per-layer metrics.  The last line of stdout is
the JSON result; the lines before it give sample counts, the tail latency,
the failed ratio and the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tracer import COMPUTED_SOURCE, Tracer
from workloads import WORKLOADS, Operation, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_build"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
THREAD_VARIABLES = ("HEATFRAME_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}

PROBE = """\
import sys
sys.path.insert(0, {src!r})
import heatframe
from heatframe.geometry import make_jacobi_space
make_jacobi_space({gamma!r}, {alpha!r}, {nodes!r})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


@dataclass
class Outcome:
    seconds: float
    error: str | None
    digest: str


def probe_setup(op: Operation) -> float:
    """Seconds from starting a fresh interpreter until heatframe is imported
    and the operation's quadrature rule is built."""
    code = PROBE.format(src=str(SRC), gamma=op.gamma, alpha=op.alpha, nodes=op.nodes)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def execute(cli, op: Operation, tracer: Tracer | None = None) -> Outcome:
    """Run one operation, timing only the ``cli.main`` call, then check its output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
        tracer.begin(op.refine_nodes)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv())
        except (Exception, SystemExit) as exc:  # the loop goes on; the operation counts as failed
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        stop = time.perf_counter()
    if tracer is not None:
        tracer.end(start, stop)
        tracer.uninstall()
    if error is None:
        error = check(op, rc, out.getvalue())
    digest = hashlib.sha256(out.getvalue().encode("utf-8"))
    if error is None and op.out is not None:
        digest.update(Path(op.out).read_bytes())
    if error is not None:
        error = f"{' '.join(op.argv())}: {error}; stderr: {err.getvalue().strip()[-300:]}"
    return Outcome(stop - start, error, digest.hexdigest())


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def timed_run(cli, ops: list[Operation], seconds: float) -> tuple[list[float], list[str]]:
    """Cycle through the operations until ``seconds`` of wall time have passed."""
    times: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        outcome = execute(cli, ops[i % len(ops)])
        i += 1
        times.append(outcome.seconds)
        if outcome.error is not None:
            failures.append(outcome.error)
    return times, failures


def traced_run(cli, ops: list[Operation], seconds: float) -> tuple[dict[str, float], list[float], list[float], list[str]]:
    """Run whole passes over the operations, each untraced then traced, while
    another pass fits in ``seconds`` (at least one).  Whole passes make the
    per-operation counts repeat exactly for a given seed."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    while not plain or time.perf_counter() + pass_s < deadline:
        pass_start = time.perf_counter()
        for op in ops:
            first = execute(cli, op)
            second = execute(cli, op, tracer)
            plain.append(first.seconds)
            traced.append(second.seconds)
            for outcome in (first, second):
                if outcome.error is not None:
                    failures.append(outcome.error)
            if first.error is None and second.error is None and first.digest != second.digest:
                failures.append(f"{' '.join(op.argv())}: traced output differs from untraced output")
        pass_s = time.perf_counter() - pass_start
    layers = tracer.metrics()
    layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return layers, plain, traced, failures


def environment(ops: list[Operation]) -> dict:
    caches = {}
    for name, key in CACHE_SYSCONF.items():
        try:
            caches[name] = os.sysconf(key)
        except (ValueError, OSError):
            caches[name] = None
    largest = max(op.largest_nodes for op in ops)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cache_bytes": caches,
        "largest_table": {"nodes": largest, "bytes": largest * largest * 8},
        "variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "heatframe" / "__init__.py").is_file():
        print(f"error: no heatframe sources at {SRC / 'heatframe'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="perfbench-", dir=WORK_DIR)
    try:
        ops = WORKLOADS[args.workload](random.Random(args.seed), out_dir)
        setup = [] if args.trace else [probe_setup(ops[0]) for _ in range(SETUP_PROBES)]

        sys.path.insert(0, str(SRC))
        from heatframe import cli, geometry

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: heatframe imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        # the in-process caller pays set-up once, before the timed loop
        geometry.make_jacobi_space(ops[0].gamma, ops[0].alpha, ops[0].nodes)

        if args.trace:
            metrics, plain, traced, failures = traced_run(cli, ops, args.seconds)
            attempted = len(plain) + len(traced)
            wanted = spec["per_layer"]
            samples = dict.fromkeys(metrics, len(traced))
            print("per-layer values are means per traced operation; "
                  "trace.overhead compares each operation's traced and untraced runs")
        else:
            times, failures = timed_run(cli, ops, args.seconds)
            attempted = len(times)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_s.p50": statistics.median(times),
                "ops_per_s": (attempted - len(failures)) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
            samples = {"setup_s": len(setup), "op_s.p50": attempted, "ops_per_s": attempted, "peak_rss_mb": 1}
            found = tail(times)
            if found is None:
                print(f"op_s.tail: omitted, {attempted} operations are too few")
            else:
                p, value, beyond = found
                print(f"op_s.tail p{p:g} = {value:.6f} s (n={attempted}, {beyond} beyond)")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    units = {entry["name"]: entry["unit"] for entry in wanted}
    for name in sorted(metrics):
        unit = units.get(name, "count" if name.endswith(".calls") else "")
        label = " (computed)" if name in COMPUTED_SOURCE else ""
        print(f"{name} = {metrics[name]:.6g} {unit} (n={samples[name]}){label}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(f"failed_ratio = {len(failures)}/{attempted}")
    print("env " + json.dumps(environment(ops), sort_keys=True))

    result = {}
    for entry in wanted:
        if entry["name"] in metrics:
            result[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
        else:
            print(f"absent: {entry['name']} (the function it wraps no longer exists)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

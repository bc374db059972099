"""The benchmark reaches program functions by name; each must exist.

perfbench/tracer.py skips a function it cannot find, and the benchmark run
then leaves that layer's metrics out of its result line.  Removing or moving
a wrapped function therefore needs a benchmark change that updates the
tracer's tables first.  The runner and the workload checks import a few
more names directly.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from heatframe import JacobiParams, fit_gaussian_bounds, verify_eigen_action, verify_holder, verify_poincare

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracer()
    missing = [
        f"{module_name}.{name}"
        for module_name, name, _ in (*tracer.SPANS, *tracer.COUNTS)
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "module_name, name",
    [("heatframe.cli", "main"), ("heatframe.geometry", "make_jacobi_space"), ("heatframe.nets", "load_net")],
)
def test_names_the_benchmark_imports_exist(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


def test_refinement_calls_are_sized_by_their_basis(legendre_basis):
    """The tracer attributes a verifier call to the refinement pass when the
    space it works on has the refined node count; verifiers that take only a
    basis must be sized by ``basis.space``."""
    tracer = _load_tracer()
    calls = [
        (verify_poincare, (legendre_basis, JacobiParams(0.0, 0.0), [(0.0, 0.5)], np.random.default_rng(0))),
        (fit_gaussian_bounds, (legendre_basis, (0.1,), [(0.0, 0.5)])),
        (verify_holder, (legendre_basis, (0.1,), [(0.0, 0.5, 0.4)], 0.5)),
        (verify_eigen_action, (legendre_basis, 0.1, 3)),
    ]
    for fn, args in calls:
        inspect.signature(fn).bind(*args)  # the tuple is a valid call
        assert tracer.space_size(args, {}) == legendre_basis.space.n


def test_traced_run_calls_every_wrapped_layer(tmp_path):
    """One small run of each subcommand, traced as the benchmark traces it,
    reaches every wrapped function and reports every per-layer name, so no
    layer metric goes missing and none but ``geometry.dense_bytes`` reads 0.
    That one counts cached N x N distance tables, and the program builds
    none."""
    from heatframe import cli, geometry

    geometry.make_jacobi_space.cache_clear()  # the rules are built, so gauss_nodes is reached
    tracer = _load_tracer().Tracer()
    runs = [
        (["verify", "--nodes", "48", "--degree", "30", "--out", str(tmp_path / "v.json")], 96),
        (["kernel", "--nodes", "32", "--degree", "20", "--out", str(tmp_path / "k.csv")], None),
        (["net", "--nodes", "64", "--out", str(tmp_path / "n.json")], None),
        (["decompose", "--nodes", "48", "--degree", "30", "--out", str(tmp_path / "d.csv")], None),
    ]
    for argv, refine_nodes in runs:
        tracer.install()
        try:
            tracer.begin(refine_nodes)
            start = time.perf_counter()
            assert cli.main(argv) == 0
            tracer.end(start, time.perf_counter())
        finally:
            tracer.uninstall()
    uncalled = sorted(metric for metric in tracer.wrapped if tracer.calls[metric] < 1)
    assert uncalled == []
    metrics = tracer.metrics()
    names = {layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert names - {"trace.overhead"} <= set(metrics)  # run.py adds the overhead ratio
    assert metrics["geometry.dense_bytes"] == 0
    assert [name for name in names - {"trace.overhead", "geometry.dense_bytes"} if metrics[name] <= 0] == []


def _refuse_non_finite(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


def test_traced_benchmark_run_ends_in_one_strict_json_line():
    """One whole traced pass of the largest workload, run as the benchmark
    runs it: the last stdout line is the result, a strict JSON object (no
    NaN or Infinity) that carries every per-layer metric."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "verify_large", "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse_non_finite)
    assert result["correct"] is True, done.stdout
    names = [layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert [name for name in names if name not in result["metrics"]] == []

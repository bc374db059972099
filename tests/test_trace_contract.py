"""The benchmark tracer wraps program functions by name; each must exist.

perfbench/tracer.py skips a function it cannot find, and the benchmark run
then leaves that layer's metrics out of its result line.  Removing or moving
a wrapped function therefore needs a benchmark change that updates the
tracer's tables first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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

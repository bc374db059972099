"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the heatframe modules with timing
wrappers for the duration of one operation, then puts the originals back.
A function is replaced under every name that binds it in a heatframe module
namespace, because callers look functions up where they imported them
(``cli`` holds its own ``to_json``, ``heat`` its own ``ball_volumes_at_nodes``).
A function that no longer exists is skipped, so its metrics read absent.

A span's self time is its duration minus the part of that interval its child
spans cover.  Children that ran in the program's thread pool overlap, so the
covered part is the length of the union of their intervals, not their sum.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# (module, function, layer metric); a metric may gather several functions.
SPANS = (
    ("heatframe._recurrence", "gauss_nodes", "recurrence.gauss_nodes"),
    ("heatframe.geometry", "make_jacobi_space", "geometry.make_space"),
    ("heatframe.geometry", "estimate_doubling", "geometry.estimate_doubling"),
    ("heatframe.geometry", "verify_ball_growth", "geometry.growth"),
    ("heatframe.geometry", "ball_volume", "geometry.ball_volumes"),
    ("heatframe.geometry", "ball_volumes_at_nodes", "geometry.ball_volumes"),
    ("heatframe.jacobi", "build_basis", "jacobi.build_basis"),
    ("heatframe.jacobi", "verify_poincare", "jacobi.poincare"),
    ("heatframe.heat", "heat_kernel", "heat.kernel"),
    ("heatframe.heat", "verify_semigroup", "heat.semigroup"),
    ("heatframe.heat", "fit_gaussian_bounds", "heat.gauss_fit"),
    ("heatframe.heat", "verify_holder", "heat.holder"),
    ("heatframe.heat", "verify_eigen_action", "heat.eigen_action"),
    ("heatframe.heat", "kernel_to_csv", "heat.csv"),
    ("heatframe.nets", "build_maximal_net", "nets.build"),
    ("heatframe.nets", "build_partition", "nets.build"),
    ("heatframe.nets", "save_net", "nets.save"),
    ("heatframe.nets", "verify_net_sums", "nets.sums"),
    # importlib reaches the module: the package's `envelope` is a function.
    ("heatframe.envelope", "verify_envelope_scaling", "envelope.scaling"),
    ("heatframe.envelope", "verify_envelope_lp", "envelope.lp"),
    ("heatframe.envelope", "verify_lemma_integrals", "envelope.lemma"),
    ("heatframe.operators", "dominated_operator", "operators.dominated"),
    ("heatframe.operators", "verify_young", "operators.mapping"),
    ("heatframe.operators", "verify_schur", "operators.mapping"),
    ("heatframe.operators", "band_decompose", "operators.band"),
    ("heatframe.operators", "verify_band_decomposition", "operators.band"),
    ("heatframe.operators", "decomposition_to_csv", "operators.csv"),
    ("heatframe.reporting", "to_json", "reporting.to_json"),
    ("heatframe.reporting", "aggregate", "reporting.aggregate"),
    ("heatframe._parallel", "ordered_map", "parallel.map"),
)

# Functions only counted: they are called hundreds of times per operation
# and their time stays in the caller's self time.
COUNTS = (("heatframe.jacobi", "coefficients", "jacobi.coefficients"),)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = lo
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if start > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    return total + (cur_hi - cur_lo)


def space_size(args: tuple, kwargs: dict) -> int | None:
    """Node count of the space a layer call works on, if it names one.

    Spaces carry ``n``, bases and kernel evaluations reach it through
    ``space`` or their table; ``gauss_nodes`` and ``make_jacobi_space`` take
    it as their third argument.
    """
    for value in (*args, *kwargs.values()):
        n = getattr(value, "n", None)
        if isinstance(n, int):
            return n
        space = getattr(value, "space", None)
        if isinstance(getattr(space, "n", None), int):
            return space.n
        table = getattr(value, "table", None)
        if getattr(table, "ndim", 0) == 2:
            return int(table.shape[0])
    if len(args) >= 3 and isinstance(args[2], int):
        return args[2]
    n = kwargs.get("n", kwargs.get("n_nodes"))
    return n if isinstance(n, int) else None


class Tracer:
    """Spans and computed counts for traced operations, summed over them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        self.wrapped: dict[str, str] = {}  # layer metric -> "span" or "count"
        self.ops = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.computed: dict[str, int] = defaultdict(int)
        self.refine_s = 0.0
        self.untraced_s = 0.0
        self._refine_n: int | None = None
        self._roots: list[tuple[float, float]] = []
        self._spaces: list[Any] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; skip the ones that do not."""
        for table, kind, make in ((SPANS, "span", self._span_wrapper), (COUNTS, "count", self._count_wrapper)):
            for module_name, name, metric in table:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                self.wrapped[metric] = kind
                self._rebind(original, make(original, metric))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "heatframe" or key.startswith("heatframe.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    # -- one operation ------------------------------------------------------

    def begin(self, refine_nodes: int | None) -> None:
        """Start an operation; calls on a space of ``refine_nodes`` count as refinement."""
        self._refine_n = refine_nodes
        self._roots = []
        self._spaces = []

    def end(self, start: float, stop: float) -> None:
        """Close the operation that ran from ``start`` to ``stop``."""
        self.ops += 1
        self.untraced_s += (stop - start) - covered(self._roots, start, stop)
        for space in self._spaces:
            # cached_property stores the table in the instance dict once built
            if "distance_matrix" in vars(space):
                self.computed["geometry.dense_bytes"] += space.n * space.n * 8
        self._spaces = []

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics as means per traced operation.

        Functions that no longer exist contribute nothing, so their metrics
        are absent rather than zero.
        """
        ops = max(self.ops, 1)
        out = {}
        for metric, kind in self.wrapped.items():
            if kind == "span":
                out[f"{metric}.s"] = self.self_s[metric] / ops
            out[f"{metric}.calls"] = self.calls[metric] / ops
        for name, source in COMPUTED_SOURCE.items():
            if source in self.wrapped:
                out[name] = self.computed[name] / ops
        out["cli.refine.s"] = self.refine_s / ops
        out["cli.untraced.s"] = self.untraced_s / ops
        return out

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, fn: Callable, parent: list) -> Callable:
        """Run ``fn`` with ``parent`` as the enclosing span, in any thread."""

        def run(*args: Any, **kwargs: Any) -> Any:
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved

        return run

    def _span_wrapper(self, original: Callable, metric: str) -> Callable:
        observe = _OBSERVERS.get(metric)
        adopt = metric == "parallel.map"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span: list = [time.perf_counter(), []]
            if adopt and args and callable(args[0]):
                args = (self._adopt(args[0], span), *args[1:])
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                stop = time.perf_counter()
                start = span[0]
                own = (stop - start) - covered(span[1], start, stop)
                refine = self._refine_n is not None and space_size(args, kwargs) == self._refine_n
                with self._lock:
                    (parent[1] if parent is not None else self._roots).append((start, stop))
                    self.self_s[metric] += own
                    self.calls[metric] += 1
                    if refine:
                        self.refine_s += own
            if observe is not None:
                with self._lock:
                    observe(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, original: Callable, metric: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.calls[metric] += 1
            return original(*args, **kwargs)

        return wrapper


# -- computed counts, from the shapes the wrappers see ------------------------


def _kernel_table(tracer: Tracer, args: tuple, result: Any) -> None:
    rows, n = args[0].values.shape  # basis: (degree + 1) x nodes
    tracer.computed["heat.kernel_bytes"] += n * n * 8
    tracer.computed["heat.flops"] += 2 * n * n * rows


def _semigroup(tracer: Tracer, args: tuple, result: Any) -> None:
    n = args[0].n
    tracer.computed["heat.flops"] += 2 * n * n * n


def _new_space(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer._spaces.append(result)


def _aggregate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.computed["reporting.reports"] += sum(row["count"] for row in result)


def _to_json(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.computed["reporting.json_bytes"] += len(result.encode("utf-8"))


_OBSERVERS = {
    "heat.kernel": _kernel_table,
    "heat.semigroup": _semigroup,
    "geometry.make_space": _new_space,
    "reporting.aggregate": _aggregate,
    "reporting.to_json": _to_json,
}

# Computed count -> the layer metric whose wrapper produces it.
COMPUTED_SOURCE = {
    "geometry.dense_bytes": "geometry.make_space",
    "heat.kernel_bytes": "heat.kernel",
    "heat.flops": "heat.kernel",
    "reporting.reports": "reporting.aggregate",
    "reporting.json_bytes": "reporting.to_json",
}

"""Compare the verdicts of two heatframe trees on one fixed grid of CLI calls.

Run from any directory:

    python tests/same_verdicts.py --base DIR --change DIR [--out FILE]

Each DIR is a repository root.  Each tree runs the whole grid in one fresh
interpreter with ``PYTHONPATH=DIR/src``, every call in process through
``heatframe.cli.main`` with its output written to a temporary file and its
warnings recorded.  Each call starts from an empty quadrature-space memo
(``geometry.make_jacobi_space.cache_clear()``, where the tree has one), as a
one-shot CLI run does.  That "cold" start also empties, in effect, the
slot of bases ``verify`` keeps one verdict deep: the slot is keyed by the
memoised space objects, and new ones never match it.  The grid is fixed and
never chosen by outcome:

- every call of the golden corpus (``golden_corpus.CALLS``);
- the envelope-underflow reproducers (``UNDERFLOW_CALLS``), which end in
  exit 2 inside ``operators.dominated_operator``;
- the ``verify_sweep``, ``verify_large`` and ``export`` operations the
  benchmark draws for seeds 1-3 (``perfbench/workloads.py`` of this
  repository), without the output paths the benchmark gives them;
- a random grid over (gamma, alpha, nodes, delta, t, sigma, seed) drawn from
  a fixed seed;
- calls of the class ``tests/test_cli.py``'s verify fuzz test draws from
  (weights in (-1, 200], nodes 23-96 with degree 22 to nodes - 1, an
  optional sigma and k override), drawn from another fixed seed, each
  followed by the ``net`` call of its weight, nodes, delta and degree, so
  nets and nearest-node snaps of heavy weights are compared too.

Per call the tool compares the exit code, the ``error:`` and ``FAILED``
stderr lines, the warning texts and the sha256 of a written export file.
Per check id it counts the reports whose pass flag moved and takes the
largest relative drift of lhs, rhs and margin.  Every other JSON path whose
value differs is listed with list indices written ``[]`` (for example
``reports[].context.refined.degree``), with the number of calls where it
differs and, for numbers, the largest relative drift.

Then the change's tree runs the grid's ``verify`` calls once more, in order,
in one more interpreter without clearing the memo, so later calls reuse the
spaces of earlier ones, and a call that repeats the previous call's weight,
nodes and degree reuses its bases.  Each of these warm records (exit code,
stderr lines, warnings, document) must equal the call's cold record.

The first line printed is the summary; ``--out`` writes the whole result as
JSON.  The exit status is 1 when an exit code or a pass flag moved, a
verdict's list of check ids changed, or a warm record differs from its cold
one, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BENCH_WORKLOADS = ("verify_sweep", "verify_large", "export")
BENCH_SEEDS = (1, 2, 3)
RANDOM_SEED = 20261020
RANDOM_CALLS = 16
RANDOM_NODES = (48, 64, 80, 96, 128)
RANDOM_DELTAS = (0.1, 0.2, 0.3, 0.4)
RANDOM_TIMES = (0.1, 0.5, 1.0)
FUZZ_SEED = 20261021
FUZZ_CALLS = 16
# (1 + d/delta)^-sigma underflows where the kernel is nonzero: a' is infinite
UNDERFLOW_CALLS = (
    ("verify", "--sigma", "300"),
    ("verify", "--nodes", "30", "--degree", "29", "--k-override", "150"),
)

_STDERR_PREFIXES = ("error:", "FAILED")
_REPORT_NUMBERS = ("lhs", "rhs", "margin")
# each per-call field compared, and the list of the calls where it moved
_RECORD_FIELDS = (
    ("exit", "exit_moved"),
    ("stderr", "stderr_moved"),
    ("warnings", "warnings_moved"),
    ("sha256", "files_moved"),
)


# -- the grid ----------------------------------------------------------------


def _random_calls() -> list[list[str]]:
    rng = random.Random(RANDOM_SEED)
    calls = []
    for _ in range(RANDOM_CALLS):
        nodes = rng.choice(RANDOM_NODES)
        argv = [
            "verify",
            "--gamma", repr(round(rng.uniform(-0.9, 4.0), 2)),
            "--alpha", repr(round(rng.uniform(-0.9, 4.0), 2)),
            "--nodes", str(nodes),
            "--degree", str(math.floor(0.8 * nodes)),
            "--delta", repr(rng.choice(RANDOM_DELTAS)),
            "--t", repr(rng.choice(RANDOM_TIMES)),
            "--seed", str(rng.randrange(100)),
        ]
        if rng.random() < 0.25:
            argv += ["--sigma", repr(round(rng.uniform(4.0, 40.0), 1))]
        calls.append(argv)
    return calls


def _fuzz_calls() -> list[list[str]]:
    rng = random.Random(FUZZ_SEED)
    calls = []
    for _ in range(FUZZ_CALLS):
        nodes = rng.randint(23, 96)
        # 1 - random() lies in (0, 1], so each weight lies in (-1, 200]
        shared = [
            "--gamma", repr(-1.0 + 201.0 * (1.0 - rng.random())),
            "--alpha", repr(-1.0 + 201.0 * (1.0 - rng.random())),
            "--nodes", str(nodes),
            "--delta", repr(rng.uniform(0.05, 1.0)),
            # older trees check the degree for ``net`` too, and reject the
            # default 40 when it exceeds nodes - 1
            "--degree", str(rng.randint(22, nodes - 1)),
        ]
        argv = ["verify", *shared, "--t", repr(rng.uniform(0.05, 2.0)), "--seed", str(rng.randrange(100))]
        if rng.random() < 0.5:
            argv += ["--sigma", repr(rng.uniform(0.5, 30.0))]
        if rng.random() < 0.5:
            argv += ["--k-override", str(rng.randint(1, 8))]
        calls += [argv, ["net", *shared]]
    return calls


def grid() -> list[list[str]]:
    """The golden calls, the underflow reproducers, the benchmark's
    operations, the random grid, the fuzz-class calls."""
    sys.path[:0] = [str(HERE), str(ROOT / "perfbench")]
    import golden_corpus
    import workloads

    calls = [list(argv) for argv in (*golden_corpus.CALLS, *UNDERFLOW_CALLS)]
    for name in BENCH_WORKLOADS:
        for seed in BENCH_SEEDS:
            calls += [replace(op, out=None).argv() for op in workloads.WORKLOADS[name](random.Random(seed), "")]
    return calls + _random_calls() + _fuzz_calls()


# -- one tree: run in a fresh interpreter ------------------------------------


def _run_call(argv: list[str], cold: bool) -> dict:
    from heatframe import cli, geometry

    if cold and hasattr(geometry.make_jacobi_space, "cache_clear"):
        geometry.make_jacobi_space.cache_clear()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code: int | str = cli.main([*argv, "--out", str(out)])
            except Exception as exc:  # a traceback is an outcome to compare, not a crash of the grid
                code = f"raised {type(exc).__name__}: {exc}"
        record: dict = {
            "exit": code,
            "stderr": [line for line in err.getvalue().splitlines() if line.startswith(_STDERR_PREFIXES)],
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        }
        if out.exists():
            if argv[0] == "verify":
                record["document"] = out.read_text(encoding="utf-8")
            else:
                record["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return record


def _child() -> int:
    job = json.load(sys.stdin)
    json.dump([_run_call(argv, job["cold"]) for argv in job["calls"]], sys.stdout)
    return 0


def run_tree(root: Path, calls: list[list[str]], cold: bool = True) -> list[dict]:
    """Each call's record, from one fresh interpreter on ``root/src``; with
    ``cold`` each call starts from an empty space memo."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            input=json.dumps({"calls": calls, "cold": cold}),
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            check=False,
        )
    if done.returncode != 0:
        raise RuntimeError(f"the grid did not run on {root}:\n{done.stderr}")
    return json.loads(done.stdout)


# -- comparison --------------------------------------------------------------


def _number(value) -> float | None:
    """A JSON leaf as a float, reading the writer's "inf"/"-inf"/"nan"."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return None


def _drift(old, new) -> float:
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _leaf_diffs(old, new, path: str = ""):
    """(path, old, new) for every leaf that differs; a list of another length
    or a missing key is one difference at its own path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                yield sub, old.get(key, "<missing>"), new.get(key, "<missing>")
            else:
                yield from _leaf_diffs(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for x, y in zip(old, new):
            yield from _leaf_diffs(x, y, f"{path}[]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _compare_documents(label: str, old: dict, new: dict, result: dict, index: int) -> None:
    old_reports, new_reports = old.get("reports", []), new.get("reports", [])
    if [r["check_id"] for r in old_reports] != [r["check_id"] for r in new_reports]:
        result["reports_moved"].append(label)
    else:
        for x, y in zip(old_reports, new_reports):
            entry = result["checks"].setdefault(
                x["check_id"], {"reports": 0, "pass_moved": 0, **{key: 0.0 for key in _REPORT_NUMBERS}}
            )
            entry["reports"] += 1
            if x["passed"] != y["passed"]:
                entry["pass_moved"] += 1
                result["flags_moved"].append(
                    {"call": label, "check_id": x["check_id"], "base": x["passed"], "change": y["passed"]}
                )
            for key in _REPORT_NUMBERS:
                entry[key] = max(entry[key], _drift(x[key], y[key]))
    skip = {f"reports[].{key}" for key in (*_REPORT_NUMBERS, "passed")}
    for path, x, y in _leaf_diffs(old, new):
        if path in skip:
            continue
        entry = result["paths"].setdefault(path, {"calls": [], "max_drift": 0.0})
        if index not in entry["calls"]:
            entry["calls"].append(index)
        entry["max_drift"] = max(entry["max_drift"], _drift(x, y))


def verify_calls(calls: list[list[str]]) -> list[list[str]]:
    return [argv for argv in calls if argv[0] == "verify"]


def compare(calls: list[list[str]], base: list[dict], change: list[dict], warm: list[dict]) -> dict:
    """Everything that differs between two trees' records of the same calls,
    and the ``verify`` calls whose ``warm`` record differs from the change's
    cold one."""
    cold = [record for argv, record in zip(calls, change) if argv[0] == "verify"]
    result: dict = {
        "calls": len(calls),
        "warm_calls": len(warm),
        "warm_moved": [
            " ".join(argv) for argv, old, new in zip(verify_calls(calls), cold, warm) if old != new
        ],
        "documents": 0,
        "identical_documents": 0,
        "exit_moved": [],
        "flags_moved": [],
        "reports_moved": [],
        "stderr_moved": [],
        "warnings_moved": [],
        "files_moved": [],
        "checks": {},
        "paths": {},
    }
    for index, (argv, old, new) in enumerate(zip(calls, base, change)):
        label = " ".join(argv)
        for key, bucket in _RECORD_FIELDS:
            if old.get(key) != new.get(key):
                result[bucket].append({"call": label, "base": old.get(key), "change": new.get(key)})
        if "document" not in old and "document" not in new:
            continue
        result["documents"] += 1
        if old.get("document") == new.get("document"):
            result["identical_documents"] += 1
        elif "document" in old and "document" in new:
            _compare_documents(label, json.loads(old["document"]), json.loads(new["document"]), result, index)
        else:
            result["paths"].setdefault("<document>", {"calls": [], "max_drift": math.inf})["calls"].append(index)
    return result


def status(result: dict) -> int:
    """1 when an exit code or a pass flag moved, a verdict's ids changed, or a
    warm record differs from its cold one."""
    moved = ("exit_moved", "flags_moved", "reports_moved", "warm_moved")
    return 1 if any(result[key] for key in moved) else 0


def summary(result: dict) -> str:
    def moved(key: str) -> str:
        return f"{len(result[key])} moved" if result[key] else "identical"

    paths = ", ".join(f"{path} ({len(entry['calls'])} calls)" for path, entry in sorted(result["paths"].items()))
    return (
        f"{result['calls']} calls: exit codes {moved('exit_moved')}, pass flags {moved('flags_moved')}, "
        f"check lists {moved('reports_moved')}, stderr {moved('stderr_moved')}, "
        f"warnings {moved('warnings_moved')}, export files {moved('files_moved')}; "
        f"{result['identical_documents']} of {result['documents']} documents byte-identical; "
        f"other paths that differ: {paths or 'none'}; "
        f"{result['warm_calls']} warm verify re-runs {moved('warm_moved')}"
    )


def details(result: dict) -> list[str]:
    lines = []
    for bucket in ("flags_moved", *(bucket for _, bucket in _RECORD_FIELDS)):
        lines += [f"{bucket}: {json.dumps(item)}" for item in result[bucket]]
    lines += [f"reports_moved: {label}" for label in result["reports_moved"]]
    lines += [f"warm_moved: {label}" for label in result["warm_moved"]]
    for check_id, entry in sorted(result["checks"].items()):
        if entry["pass_moved"] or any(entry[key] for key in _REPORT_NUMBERS):
            drifts = ", ".join(f"{key} {entry[key]:.2e}" for key in _REPORT_NUMBERS)
            moved = f"{entry['pass_moved']} of {entry['reports']} pass flags moved"
            lines.append(f"{check_id}: {moved}; largest drift {drifts}")
    for path, entry in sorted(result["paths"].items()):
        lines.append(f"{path}: {len(entry['calls'])} calls, largest drift {entry['max_drift']:.2e}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="root of the tree compared against")
    parser.add_argument("--change", type=Path, help="root of the changed tree")
    parser.add_argument("--out", type=Path, help="write the whole comparison as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child()
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    calls = grid()
    base = run_tree(args.base, calls)
    change = run_tree(args.change, calls)
    result = compare(calls, base, change, run_tree(args.change, verify_calls(calls), cold=False))
    print(summary(result))
    for line in details(result):
        print(line)
    if args.out:
        args.out.write_text(json.dumps(dict(result, grid=calls), indent=1) + "\n", encoding="utf-8")
    return status(result)


if __name__ == "__main__":
    sys.exit(main())

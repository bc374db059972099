"""Golden verdict corpus: a fixed grid of CLI calls and what each produced.

Each call records its exit code, its ``error:`` and ``FAILED checks:``
stderr lines, the warnings it raised (category and text, without file and
line), and for every report of a ``verify`` document the check id, the
pass flag and the (lhs, rhs, margin) triple.  Export calls record the
sha256 of the file they write.  ``tests/test_golden.py`` reruns the grid and
compares against the stored record.

Rewrite the goldens from the repository root with

    PYTHONPATH=src python tests/golden_corpus.py

and say in CHANGES.md why they moved.  The numbers come from one machine's
BLAS; another BLAS may differ in the last ulps, which is why the test
compares numbers with a relative tolerance and never hashes documents.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
META = GOLDEN_DIR / "verdicts.json"
NUMBERS = GOLDEN_DIR / "verdicts.npz"

_STDERR_PREFIXES = ("error:", "FAILED checks:")


def _verify(gamma, alpha, nodes, degree, *extra):
    return ["verify", "--gamma", repr(gamma), "--alpha", repr(alpha),
            "--nodes", str(nodes), "--degree", str(degree), *extra]


CALLS = [
    ["verify"],
    _verify(3.0, -0.5, 64, 51),
    _verify(-0.5, -0.5, 96, 76),
    _verify(-0.5, -0.5, 64, 51, "--delta", "0.1"),  # truncated Young/Schur kernel: one warning
    _verify(1.5, -0.5, 128, 102),  # the refinement is built at degree 121, below twice 102
    _verify(0.001, -0.002, 128, 102, "--seed", "4"),  # near-flat weight, same refinement shape
    _verify(0.0, 0.0, 64, 51, "--delta", "0.1", "--t", "1.0", "--seed", "3"),
    _verify(0.5, 2.0, 80, 64, "--delta", "0.4", "--seed", "5"),
    _verify(-0.5, 1.5, 96, 76, "--t", "0.1", "--seed", "7"),
    _verify(3.0, 0.5, 64, 51, "--sigma", "40.0", "--seed", "2"),
    _verify(3.0, 0.5, 64, 51, "--sigma", "4.0", "--seed", "2"),  # exit 2: sigma too small for a_p
    _verify(1.5, -0.5, 80, 64, "--k-override", "1"),  # exit 1
    _verify(3.0, 0.5, 64, 51, "--k-override", "2"),  # exit 1
    _verify(5.0, 20.0, 128, 19, "--delta", "0.05", "--t", "1.0"),  # exit 2: Young constant overflows
    _verify(0.0, 0.0, 64, 10),  # exit 2: degree below the spectral-tail floor
    _verify(-1.0, 0.0, 64, 40),  # exit 2: exponent at -1
    ["kernel", "--gamma", "0.5", "--alpha", "-0.5", "--nodes", "64", "--degree", "51", "--t", "0.3"],
    ["net", "--gamma", "3.0", "--alpha", "-0.5", "--nodes", "64", "--delta", "0.1"],
    ["net", "--nodes", "1024", "--delta", "0.05"],  # the benchmark's export shape
    ["net", "--gamma", "40", "--alpha", "40", "--nodes", "512", "--delta", "0.1"],
    ["decompose", "--gamma", "-0.5", "--alpha", "-0.5", "--nodes", "64", "--degree", "51", "--seed", "6"],
]


def run_call(argv: list[str]) -> tuple[dict, dict[str, np.ndarray]]:
    """Run one call in process; return its record and its report arrays."""
    from heatframe import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([*argv, "--out", str(out)])
        record = {
            "argv": argv,
            "exit": code,
            "stderr": [line for line in err.getvalue().splitlines() if line.startswith(_STDERR_PREFIXES)],
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        }
        arrays: dict[str, np.ndarray] = {}
        if argv[0] != "verify":
            record["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
        elif out.exists():
            reports = json.loads(out.read_text(encoding="utf-8"))["reports"]
            arrays["ids"] = np.array([r["check_id"] for r in reports])
            arrays["passed"] = np.array([r["passed"] for r in reports], dtype=bool)
            # float() also reads the document's "inf", "-inf" and "nan" spellings
            arrays["numbers"] = np.array(
                [[float(r[key]) for key in ("lhs", "rhs", "margin")] for r in reports], dtype=float
            ).reshape(-1, 3)
    return record, arrays


def load() -> tuple[list[dict], dict[str, np.ndarray]]:
    records = json.loads(META.read_text(encoding="utf-8"))
    with np.load(NUMBERS) as data:
        arrays = {key: data[key] for key in data.files}
    return records, arrays


def regenerate() -> None:
    records = []
    arrays: dict[str, np.ndarray] = {}
    for i, argv in enumerate(CALLS):
        record, found = run_call(argv)
        records.append(record)
        for key, value in found.items():
            arrays[f"{key}_{i}"] = value
    GOLDEN_DIR.mkdir(exist_ok=True)
    META.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    np.savez_compressed(NUMBERS, **arrays)


if __name__ == "__main__":
    regenerate()

"""The same-verdict comparer: a tree against its own copy differs nowhere, and
a tolerance scaled by 1e-6 in a copy moves pass flags and the tool's exit
status with them."""

import shutil
from pathlib import Path

import pytest

import same_verdicts

ROOT = Path(__file__).resolve().parent.parent
CALLS = [
    ["verify"],
    ["verify", "--gamma", "3.0", "--alpha", "-0.5", "--nodes", "64", "--degree", "51"],
    ["net", "--gamma", "3.0", "--alpha", "-0.5", "--nodes", "64", "--delta", "0.1"],
]


@pytest.fixture(scope="module")
def base():
    return same_verdicts.run_tree(ROOT, CALLS)


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_a_tree_against_its_own_copy_differs_nowhere(base, tmp_path):
    result = same_verdicts.compare(CALLS, base, same_verdicts.run_tree(_copy(tmp_path), CALLS))
    assert same_verdicts.status(result) == 0
    assert (result["documents"], result["identical_documents"]) == (2, 2)
    assert result["paths"] == {}
    for bucket in ("exit_moved", "flags_moved", "reports_moved", "stderr_moved", "warnings_moved", "files_moved"):
        assert result[bucket] == [], bucket
    assert same_verdicts.summary(result).startswith("3 calls: exit codes identical, pass flags identical")


def test_a_scaled_tolerance_moves_pass_flags(base, tmp_path):
    # The stability fits never gate the exit code, so only their flags move.
    tree = _copy(tmp_path)
    reporting = tree / "src" / "heatframe" / "reporting.py"
    text = reporting.read_text(encoding="utf-8")
    assert text.count("rel_tol: float = 0.2,") == 1
    reporting.write_text(text.replace("rel_tol: float = 0.2,", "rel_tol: float = 0.2 * 1e-6,"), encoding="utf-8")
    result = same_verdicts.compare(CALLS, base, same_verdicts.run_tree(tree, CALLS))
    assert same_verdicts.status(result) == 1
    moved = {(m["call"], m["check_id"]) for m in result["flags_moved"]}
    stability = {"gauss.stability", "holder.stability", "poincare.stability"}
    assert moved == {(" ".join(argv), check) for argv in CALLS[:2] for check in stability}
    assert result["exit_moved"] == [] and result["files_moved"] == []
    for check in stability:
        assert result["checks"][check]["rhs"] > 0.99  # the tolerance is its rhs
    assert "pass flags 6 moved" in same_verdicts.summary(result)

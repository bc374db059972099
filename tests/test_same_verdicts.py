"""The same-verdict comparer: a tree against its own copy differs nowhere, a
tolerance scaled by 1e-6 in a copy moves pass flags and the tool's exit
status with them, and a copy whose verdicts read the space memo's state
differs between its warm and cold runs."""

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
# the second and third calls reuse the spaces of the first when warm
WARM_CALLS = [["verify", "--seed", str(seed)] for seed in range(3)]


@pytest.fixture(scope="module")
def base():
    return same_verdicts.run_tree(ROOT, CALLS)


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _warm(tree: Path, calls: list[list[str]]) -> list[dict]:
    return same_verdicts.run_tree(tree, same_verdicts.verify_calls(calls), cold=False)


def test_a_tree_against_its_own_copy_differs_nowhere(base, tmp_path):
    tree = _copy(tmp_path)
    result = same_verdicts.compare(CALLS, base, same_verdicts.run_tree(tree, CALLS), _warm(tree, CALLS))
    assert same_verdicts.status(result) == 0
    assert (result["documents"], result["identical_documents"]) == (2, 2)
    assert result["paths"] == {}
    for bucket in (
        "exit_moved", "flags_moved", "reports_moved", "stderr_moved", "warnings_moved", "files_moved", "warm_moved"
    ):
        assert result[bucket] == [], bucket
    assert result["warm_calls"] == 2
    summary = same_verdicts.summary(result)
    assert summary.startswith("3 calls: exit codes identical, pass flags identical")
    assert summary.endswith("2 warm verify re-runs identical")


def test_warm_runs_that_reuse_spaces_equal_the_cold_ones():
    cold = same_verdicts.run_tree(ROOT, WARM_CALLS)
    result = same_verdicts.compare(WARM_CALLS, cold, cold, _warm(ROOT, WARM_CALLS))
    assert result["warm_calls"] == 3 and result["warm_moved"] == []
    assert same_verdicts.status(result) == 0


def test_a_verdict_that_reads_the_memo_state_fails_the_warm_check(tmp_path):
    # A memo hit changes this copy's document, so its cold runs match the
    # tree's and its warm ones do not.
    tree = _copy(tmp_path)
    cli = tree / "src" / "heatframe" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"seed": config.seed,') == 1
    cli.write_text(
        text.replace('"seed": config.seed,', '"seed": config.seed + geometry.make_jacobi_space.cache_info().hits,'),
        encoding="utf-8",
    )
    cold = same_verdicts.run_tree(ROOT, WARM_CALLS)
    result = same_verdicts.compare(
        WARM_CALLS, cold, same_verdicts.run_tree(tree, WARM_CALLS), _warm(tree, WARM_CALLS)
    )
    assert result["identical_documents"] == 3
    assert result["warm_moved"] == [" ".join(argv) for argv in WARM_CALLS[1:]]
    assert same_verdicts.status(result) == 1
    assert same_verdicts.summary(result).endswith("3 warm verify re-runs 2 moved")


def test_a_scaled_tolerance_moves_pass_flags(base, tmp_path):
    # The stability fits never gate the exit code, so only their flags move.
    tree = _copy(tmp_path)
    reporting = tree / "src" / "heatframe" / "reporting.py"
    text = reporting.read_text(encoding="utf-8")
    assert text.count("rel_tol: float = 0.2,") == 1
    reporting.write_text(text.replace("rel_tol: float = 0.2,", "rel_tol: float = 0.2 * 1e-6,"), encoding="utf-8")
    result = same_verdicts.compare(CALLS, base, same_verdicts.run_tree(tree, CALLS), [])
    assert same_verdicts.status(result) == 1
    moved = {(m["call"], m["check_id"]) for m in result["flags_moved"]}
    stability = {"gauss.stability", "holder.stability", "poincare.stability"}
    assert moved == {(" ".join(argv), check) for argv in CALLS[:2] for check in stability}
    assert result["exit_moved"] == [] and result["files_moved"] == []
    for check in stability:
        assert result["checks"][check]["rhs"] > 0.99  # the tolerance is its rhs
    assert "pass flags 6 moved" in same_verdicts.summary(result)

"""Report construction, aggregation, gating, and deterministic serialization."""

import json
import math
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_corpus
from heatframe import DomainError, cli
from heatframe.reporting import (
    CHECK_IDS,
    FIT_CHECK_IDS,
    aggregate,
    compare_stability,
    gate,
    make_report,
    to_json,
)


def test_margin_orientation_and_tolerance():
    upper = make_report("markov", 0.3, 1.0, context={})
    assert upper.margin == 0.7 and upper.passed
    lower = make_report("growth.floor", 5.0, 2.0, lower=True, context={})
    assert lower.margin == 3.0 and lower.passed
    # A hair over the bound stays inside the relative floor...
    assert make_report("markov", 1.0 + 5e-13, 1.0, context={}).passed
    # ...but a visible overshoot does not.
    assert not make_report("markov", 1.0 + 5e-12, 1.0, context={}).passed


def test_unknown_check_id_rejected():
    with pytest.raises(DomainError):
        make_report("not.a.check", 0.0, 1.0, context={})
    assert FIT_CHECK_IDS <= CHECK_IDS


def test_aggregate_groups_and_worst_margin():
    reports = [
        make_report("markov", 0.1, 1.0, context={}),
        make_report("markov", 0.9, 1.0, context={}),
        make_report("young", 2.0, 1.0, context={}),
    ]
    rows = aggregate(reports)
    assert [row["check_id"] for row in rows] == ["markov", "young"]
    markov_row = rows[0]
    assert markov_row["count"] == 2
    assert markov_row["pass_rate"] == 1.0
    assert markov_row["worst_margin"] == pytest.approx(0.1)
    assert rows[1]["pass_rate"] == 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    values=st.lists(
        st.tuples(st.sampled_from(["markov", "young", "schur"]), st.floats(0, 2)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_aggregate_is_permutation_invariant(values, seed):
    reports = [make_report(cid, lhs, 1.0, context={}) for cid, lhs in values]
    shuffled = list(reports)
    np.random.default_rng(seed).shuffle(shuffled)
    assert aggregate(reports) == aggregate(shuffled)


def test_gate_ignores_fit_checks_only():
    failing_fit = make_report("gauss.stability", 10.0, 0.2, context={})
    passing = make_report("markov", 0.0, 1.0, context={})
    failing_hard = make_report("young", 2.0, 1.0, context={})
    assert not failing_fit.passed
    assert gate([failing_fit, passing])
    assert not gate([passing, failing_hard])


def test_to_json_is_deterministic_and_handles_numpy():
    doc_a = {"b": np.float64(1.5), "a": np.int64(3), "c": [np.inf, -np.inf]}
    doc_b = {"c": [np.inf, -np.inf], "a": np.int64(3), "b": np.float64(1.5)}
    text_a = to_json(doc_a)
    assert text_a == to_json(doc_b)
    assert text_a.endswith("\n")
    parsed = json.loads(text_a)
    assert parsed["a"] == 3 and parsed["b"] == 1.5
    assert parsed["c"] == ["inf", "-inf"]


def _jsonable(value: Any) -> Any:
    """The coercion ``to_json`` once ran before ``json.dumps``: the oracle's half."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if hasattr(value, "item"):
        return _jsonable(value.item())
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def oracle_json(document: Any) -> str:
    return json.dumps(_jsonable(document), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1.7e308, -1.7e308]),
)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(max_size=8),
)
_STR_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["%", "%s", "%%", "100%d", '"', '\\"', "\\", "é", "Ω·κ", "中", "\x00", "\n"]),
)
_KEYS = st.one_of(_STR_KEYS, st.integers(-3, 12))  # int keys serialise through str()


def _nested(leaves, depth):
    """Documents whose lists, tuples and dicts nest up to `depth` deep, empty ones included."""
    docs = leaves
    for _ in range(depth):
        docs = st.one_of(
            leaves,
            st.lists(docs, max_size=4),
            st.lists(docs, max_size=4).map(tuple),
            st.dictionaries(_KEYS, docs, max_size=4),
        )
    return docs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(document=_nested(_SCALARS, 4))
def test_to_json_matches_json_dumps_byte_for_byte(document):
    assert to_json(document) == oracle_json(document)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(document=st.dictionaries(_STR_KEYS, _nested(_SCALARS, 3), min_size=2, max_size=6))
def test_to_json_ignores_key_insertion_order(document):
    reordered = dict(reversed(list(document.items())))
    assert list(reordered) != list(document)
    assert to_json(reordered) == to_json(document) == oracle_json(document)


# every call of the golden grid that writes a document (exit 2 writes none)
_VERDICT_CALLS = [r["argv"] for r in golden_corpus.load()[0] if r["argv"][0] == "verify" and r["exit"] != 2]
_VERDICT_CALLS.append(["verify", "--nodes", "1024", "--degree", "800"])


@pytest.mark.parametrize("argv", _VERDICT_CALLS, ids=" ".join)
def test_to_json_matches_json_dumps_on_real_verdicts(argv, monkeypatch, tmp_path):
    # both sides serialise the same in-process document, so BLAS does not enter
    documents = []

    def capture(document):
        documents.append(document)
        return to_json(document)

    monkeypatch.setattr(cli, "to_json", capture)
    assert cli.main([*argv, "--out", str(tmp_path / "verdict.json")]) in (0, 1)
    (document,) = documents
    assert to_json(document) == oracle_json(document)


def test_report_to_dict_round_trips_through_json():
    report = make_report(
        "markov", 0.5, 1.0, paper_constant=1.0, context={"t": np.float64(0.3)}
    )
    parsed = json.loads(to_json(report.to_dict()))
    assert parsed["check_id"] == "markov"
    assert parsed["passed"] is True
    assert parsed["context"]["t"] == 0.3


def test_stability_comparison_drift():
    base = {"K": 1.0, "a": 2.0}
    near = {"K": 1.1, "a": 2.1}
    far = {"K": 1.5, "a": 2.0}
    ok = compare_stability("gauss.stability", base, near, ("K", "a"))
    assert ok.passed and ok.lhs == pytest.approx(0.1)
    bad = compare_stability("gauss.stability", base, far, ("K", "a"))
    assert not bad.passed and bad.lhs == pytest.approx(0.5)
    degenerate = compare_stability(
        "gauss.stability", {"K": math.inf}, {"K": 1.0}, ("K",)
    )
    assert not degenerate.passed

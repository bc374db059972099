"""Report construction, aggregation, gating, and deterministic serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatframe import DomainError
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

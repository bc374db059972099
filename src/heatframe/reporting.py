"""Structured pass/fail records for every quantitative check.

Each verifier emits VerificationReport rows with a registered check_id, the
two sides of its inequality, the printed constant it used, and enough context
to rerun the worst case.  The pass rule is uniform: the margin (rhs - lhs for
upper bounds, lhs - rhs for lower bounds) must not fall below a relative
floor of -1e-12 * max(1, |rhs|).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import DomainError

MARGIN_FLOOR = 1e-12

#: Every check id a verifier may emit.  Unknown ids are rejected so that the
#: aggregated output stays a closed vocabulary.
CHECK_IDS = frozenset(
    {
        "growth.scaled",
        "growth.shifted",
        "growth.floor",
        "net.sum.cell_decay",
        "net.sum.center_decay",
        "net.sum.cell_volume_ratio",
        "net.sum.envelope_product",
        "net.sum.decay_product",
        "envelope.one_volume",
        "envelope.shrink",
        "envelope.grow",
        "envelope.lp_norm",
        "envelope.self_reproduction",
        "lemma.decay_integral",
        "lemma.product_pair_volume",
        "lemma.product_one_volume",
        "lemma.product_flat",
        "lemma.weighted_product",
        "markov",
        "semigroup",
        "eigen_action",
        "gauss.fit",
        "gauss.stability",
        "holder.fit",
        "holder.stability",
        "young",
        "schur",
        "poincare.fit",
        "poincare.stability",
        "band.parseval",
        "band.reconstruction",
        "frame.ratio",
        "frame.stability",
    }
)

#: Checks whose pass/fail is a statement about a fitted quantity (finiteness
#: or stability), not an asserted inequality with a printed constant.  These
#: are reported but never gate an exit code.
FIT_CHECK_IDS = frozenset(
    {
        "gauss.fit",
        "gauss.stability",
        "holder.fit",
        "holder.stability",
        "poincare.fit",
        "poincare.stability",
        "frame.ratio",
        "frame.stability",
    }
)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and non-finite floats into stable JSON values."""
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


@dataclass(frozen=True)
class VerificationReport:
    """One checked inequality: lhs against rhs with the constant used."""

    check_id: str
    lhs: float
    rhs: float
    paper_constant: float | None
    margin: float
    passed: bool
    context: dict[str, Any]

    def __post_init__(self) -> None:
        if self.check_id not in CHECK_IDS:
            raise DomainError(f"unknown check id: {self.check_id!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_id": self.check_id,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "paper_constant": None if self.paper_constant is None else float(self.paper_constant),
            "margin": float(self.margin),
            "passed": bool(self.passed),
            "context": dict(self.context),
        }


def make_report(
    check_id: str,
    lhs: float,
    rhs: float,
    *,
    lower: bool = False,
    paper_constant: float | None = None,
    context: Mapping[str, Any],
) -> VerificationReport:
    """Build a report; `lower=True` means the check asserts lhs >= rhs."""
    lhs = float(lhs)
    rhs = float(rhs)
    margin = (lhs - rhs) if lower else (rhs - lhs)
    passed = bool(margin >= -MARGIN_FLOOR * max(1.0, abs(rhs)))
    return VerificationReport(
        check_id=check_id,
        lhs=lhs,
        rhs=rhs,
        paper_constant=paper_constant,
        margin=margin,
        passed=passed,
        context=dict(context),
    )


def aggregate(reports: Iterable[VerificationReport]) -> list[dict[str, Any]]:
    """Group reports by check_id: counts, pass rate, and the worst margin.

    The output order (sorted ids) and the tie-breaking (first worst margin
    encountered wins) are deterministic functions of the input multiset, so
    two runs over the same reports agree byte for byte.
    """
    buckets: dict[str, list[VerificationReport]] = {}
    for report in reports:
        buckets.setdefault(report.check_id, []).append(report)
    rows = []
    for check_id in sorted(buckets):
        group = buckets[check_id]
        worst = min(group, key=lambda r: r.margin)
        rows.append(
            {
                "check_id": check_id,
                "count": len(group),
                "pass_rate": sum(1 for r in group if r.passed) / len(group),
                "worst_margin": float(worst.margin),
                "worst_context": dict(worst.context),
            }
        )
    return rows


def gate(reports: Iterable[VerificationReport]) -> bool:
    """True when every asserted (non-fit) check passed."""
    return all(r.passed for r in reports if r.check_id not in FIT_CHECK_IDS)


def to_json(document: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_jsonable(document), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def compare_stability(
    check_id: str,
    base_context: Mapping[str, Any],
    refined_context: Mapping[str, Any],
    keys: Iterable[str],
    rel_tol: float = 0.2,
) -> VerificationReport:
    """Report the largest relative drift of fitted constants under refinement."""
    drift = 0.0
    drifts: dict[str, float] = {}
    for key in keys:
        b = float(base_context[key])
        r = float(refined_context[key])
        if not (math.isfinite(b) and math.isfinite(r)):
            drifts[key] = float("inf")
            drift = float("inf")
            continue
        d = abs(r - b) / max(abs(b), 1e-300)
        drifts[key] = d
        drift = max(drift, d)
    context = {"base": dict(base_context), "refined": dict(refined_context), "relative_drift": drifts}
    return make_report(check_id, drift, rel_tol, context=context)

"""Structured pass/fail records for every quantitative check.

Each verifier emits VerificationReport rows with a registered check_id, the
two sides of its inequality, the printed constant it used, and enough context
to rerun the worst case.  The pass rule is uniform: the margin (rhs - lhs for
upper bounds, lhs - rhs for lower bounds) must not fall below a relative
floor of -1e-12 * max(1, |rhs|).
"""
from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable, Mapping, TextIO

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
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    The text is byte for byte that of ``json.dumps(doc, sort_keys=True,
    indent=2, separators=(",", ": "))``, where keys are passed through
    ``str``, numpy scalars through ``.item()``, nan and +-inf become the
    strings "nan", "inf" and "-inf", and any other object its ``str``.
    """
    return _text(document, 0) + "\n"


_STR_ONLY = frozenset({str})


@lru_cache(maxsize=256)
def _dict_template(keys: tuple[str, ...], depth: int) -> str:
    """A "%s" slot per value of a dict with these sorted keys at this depth."""
    inner = "\n" + "  " * (depth + 1)
    fields = ("," + inner).join(_quote(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + fields + "\n" + "  " * depth + "}"


def _dict_text(value: Mapping, depth: int) -> str:
    if not value:
        return "{}"
    if set(map(type, value)) != _STR_ONLY:  # json keys are str(key)
        value = {str(key): item for key, item in value.items()}
    keys = tuple(sorted(value))
    return _dict_template(keys, depth) % tuple([_text(value[key], depth + 1) for key in keys])


def _list_text(value: list | tuple, depth: int) -> str:
    if not value:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    items = ("," + inner).join([_text(item, depth + 1) for item in value])
    return "[" + inner + items + "\n" + "  " * depth + "]"


def _text(value: Any, depth: int) -> str:
    if isinstance(value, float):  # np.float64 too
        if math.isfinite(value):
            return float.__repr__(value)
        return '"nan"' if value != value else '"inf"' if value > 0 else '"-inf"'
    if type(value) is dict:
        return _dict_text(value, depth)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if hasattr(value, "item"):  # other numpy scalars
        return _text(value.item(), depth)
    if isinstance(value, Mapping):
        return _dict_text(value, depth)
    if isinstance(value, (list, tuple)):
        return _list_text(value, depth)
    return _quote(str(value))


def open_output(path: str, newline: str | None = None) -> TextIO:
    """Open ``path`` for writing UTF-8 text as a new file.

    An existing regular file is unlinked first rather than truncated in
    place, so the write never waits on the write-back of the old copy.
    Other hard links to that file keep the old copy.  A symlink is written
    through to its target, and a device such as /dev/null is opened as is.
    A path that cannot be opened for writing (a missing directory, a
    directory, no permission) is a DomainError naming it.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:  # no such file, or one we may not unlink: open it as before
        pass
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


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

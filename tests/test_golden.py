"""Golden verdict corpus: every call of the grid ends as it ended when the
goldens were written (see golden_corpus.py for the grid and how to rewrite it)."""

import numpy as np
import pytest

from heatframe import FIT_CHECK_IDS

import golden_corpus

RECORDS, ARRAYS = golden_corpus.load()

# Asserted checks compare a computed side against a printed constant; the
# same arithmetic on the same inputs gives the same numbers to the last few
# ulps of a BLAS kernel.
ASSERTED_RTOL = 1e-12
# An asserted lhs below 1e-4 of its rhs on both sides is an identity residual
# at roundoff (markov, semigroup, eigen_action, band.*): any change of
# summation order moves it by whole multiples of itself, and only its pass
# flag carries information.
ROUNDOFF_FRACTION = 1e-4
# Fitted ids regress on sampled kernel values or compare two such fits.  A
# change of summation order in the samples alone (per-pair sums in place of
# a table on the sampled nodes) moved the stored holder.fit numbers by up to
# 1.4e-6 relative, and the fitted contexts behind them (K, K_H) by up to
# 8e-4.  The stability drifts are differences of two fits, so they also get
# an absolute allowance; they moved by up to 4.7e-5 relative (2.2e-6
# absolute), past both tolerances, and the goldens were rewritten.
FIT_RTOL = 3e-5
FIT_ATOL = 1e-9


def _close(new, old, rtol, atol=0.0):
    same = (new == old) | (np.isnan(new) & np.isnan(old))
    finite = np.isfinite(new) & np.isfinite(old)
    near = finite & (np.abs(new - old) <= atol + rtol * np.maximum(np.abs(new), np.abs(old)))
    return same | near


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=[" ".join(r["argv"]) for r in RECORDS])
def test_call_matches_its_golden(index):
    golden = RECORDS[index]
    assert golden["argv"] == golden_corpus.CALLS[index], "the grid changed; rewrite the goldens"
    record, arrays = golden_corpus.run_call(golden["argv"])
    assert record == golden
    key = f"ids_{index}"
    assert (key in ARRAYS) == ("ids" in arrays)
    if key not in ARRAYS:
        return
    ids = ARRAYS[key]
    assert arrays["ids"].tolist() == ids.tolist()
    assert arrays["passed"].tolist() == ARRAYS[f"passed_{index}"].tolist()
    new, old = arrays["numbers"], ARRAYS[f"numbers_{index}"]
    fitted = np.isin(ids, sorted(FIT_CHECK_IDS))
    asserted = ~fitted
    ok = np.ones(new.shape, dtype=bool)
    ok[fitted] = _close(new[fitted], old[fitted], FIT_RTOL, FIT_ATOL)
    ok[asserted] = _close(new[asserted], old[asserted], ASSERTED_RTOL)
    rhs = np.abs(old[:, 1])
    at_roundoff = asserted & (np.abs(new[:, 0]) < ROUNDOFF_FRACTION * rhs) & (
        np.abs(old[:, 0]) < ROUNDOFF_FRACTION * rhs
    )
    ok[at_roundoff, 0] = True  # lhs
    ok[at_roundoff, 2] = True  # margin = rhs - lhs carries the same residual
    bad = np.argwhere(~ok)
    assert bad.size == 0, [
        (int(row), str(ids[row]), ("lhs", "rhs", "margin")[col], float(old[row, col]), float(new[row, col]))
        for row, col in bad[:10]
    ]

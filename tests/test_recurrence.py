"""Quadrature and orthonormal-recurrence tests against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from heatframe import DomainError, ExactnessError
from heatframe import _recurrence
from heatframe._recurrence import (
    JacobiParams,
    gauss_nodes,
    orthonormal_rows,
    recurrence_coefficients,
)
from heatframe.cli import RunConfig


def evaluate_orthonormal(gamma, alpha, degree, x):
    """(values, derivatives) of p_0..p_degree at x, stacked from the rows the
    recurrence yields one at a time."""
    coeffs = recurrence_coefficients(gamma, alpha, degree)
    rows = list(orthonormal_rows(*coeffs, np.asarray(x, dtype=float), deriv_rows=degree + 1))
    return np.array([v for v, _ in rows]), np.array([d for _, d in rows])


def _reference_tables(gamma, alpha, degree, x):
    """The recurrence tabulated whole, row by row into (degree + 1, N) tables."""
    a, b, mu0 = recurrence_coefficients(gamma, alpha, degree)
    values = np.zeros((degree + 1, x.size))
    derivs = np.zeros((degree + 1, x.size))
    values[0] = 1.0 / math.sqrt(mu0)
    if degree >= 1:
        sb1 = math.sqrt(b[1])
        values[1] = (x - a[0]) * values[0] / sb1
        derivs[1] = values[0] / sb1
    for k in range(1, degree):
        sb_next = math.sqrt(b[k + 1])
        sb_prev = math.sqrt(b[k])
        values[k + 1] = ((x - a[k]) * values[k] - sb_prev * values[k - 1]) / sb_next
        derivs[k + 1] = ((x - a[k]) * derivs[k] + values[k] - sb_prev * derivs[k - 1]) / sb_next
    return values, derivs


def _tabulated_weights(gamma, alpha, x):
    """Christoffel weights at the nodes x as a column sum of the full table."""
    n = x.size
    values, _ = _reference_tables(gamma, alpha, n, x)
    return 1.0 / np.sum(values[:n] ** 2, axis=0)


def _scipy_rule(gamma, alpha, n):
    """The oracle: scipy's eigenvalue rule refined by two Newton passes on
    the full tables, with tabulated Christoffel weights."""
    x, _ = scipy.special.roots_jacobi(n, gamma, alpha)
    for _ in range(2):
        values, derivs = _reference_tables(gamma, alpha, n, x)
        x = x - values[n] / derivs[n]
    x = np.sort(np.clip(x, -1.0, 1.0))
    return x, _tabulated_weights(gamma, alpha, x)


# Two ulps of |x| just below 1: both rules round Newton's limit.
NODE_ATOL = 4.5e-16
WEIGHT_RTOL = 1e-12


def _assert_same_rule(gamma, alpha, rule, ref_rule):
    (nodes, weights), (ref_nodes, ref_weights) = rule, ref_rule
    n = nodes.size
    assert np.abs(nodes - ref_nodes).max() <= NODE_ATOL
    # Where a node sits an ulp away from the oracle's, its weight moves with
    # the Christoffel function, by |dx| |d log lambda / dx| with
    # d log lambda / dx = -2 sum p_k p_k' / sum p_k^2: at the last node of
    # (0, 2 - 4 ulp, 187) one ulp moves the weight by 1.24e-12.  Neither rule
    # is the closer one in general (checked against 40-digit zeros).
    values, derivs = evaluate_orthonormal(gamma, alpha, n - 1, ref_nodes)
    slope = np.abs(2.0 * np.sum(values * derivs, axis=0) / np.sum(values**2, axis=0))
    allowance = WEIGHT_RTOL + 2.0 * np.abs(nodes - ref_nodes) * slope
    assert np.all(np.abs(weights / ref_weights - 1.0) <= allowance)


def _assert_matches_the_oracle(gamma, alpha, nodes, weights):
    _assert_same_rule(gamma, alpha, (nodes, weights), _scipy_rule(gamma, alpha, nodes.size))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_two_node_flat_weight_is_analytic():
    # Closed form: nodes +-1/sqrt(3), both weights exactly 1.
    nodes, weights = gauss_nodes(0.0, 0.0, 2)
    root3 = 1.0 / math.sqrt(3.0)
    assert nodes == pytest.approx([-root3, root3], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_chebyshev_rule_is_analytic():
    # Weight (1-x)^(-1/2)(1+x)^(-1/2): nodes cos((2j-1)pi/(2n)), weights pi/n.
    n = 16
    nodes, weights = gauss_nodes(-0.5, -0.5, n)
    expected = np.cos((2 * np.arange(n, 0, -1) - 1) * math.pi / (2 * n))
    assert nodes == pytest.approx(expected, abs=1e-14)
    assert weights == pytest.approx(np.full(n, math.pi / n), rel=1e-13)


def test_nodes_match_scipy_legendre():
    nodes, weights = gauss_nodes(0.0, 0.0, 64)
    ref_nodes, ref_weights = scipy.special.roots_legendre(64)
    assert nodes == pytest.approx(ref_nodes, abs=5e-13)
    assert weights == pytest.approx(ref_weights, rel=5e-13)


def test_quadrature_exactness_on_monomials():
    # An n-point rule integrates degree <= 2n-1 exactly: int x^6 dx = 2/7.
    nodes, weights = gauss_nodes(0.0, 0.0, 4)
    assert float(weights @ nodes**6) == pytest.approx(2.0 / 7.0, rel=1e-14)
    assert float(weights @ nodes**7) == pytest.approx(0.0, abs=1e-14)


def test_total_mass_matches_adaptive_integration():
    # mu0 and the weight sum must both equal int (1-x)^0.5 (1+x)^-0.3 dx.
    gamma, alpha = 0.5, -0.3
    ref, err = scipy.integrate.quad(
        lambda x: (1.0 - x) ** gamma * (1.0 + x) ** alpha, -1.0, 1.0
    )
    _, _, mu0 = recurrence_coefficients(gamma, alpha, 4)
    _, weights = gauss_nodes(gamma, alpha, 32)
    assert mu0 == pytest.approx(ref, rel=1e-12, abs=10 * err)
    assert float(weights.sum()) == pytest.approx(ref, rel=1e-12, abs=10 * err)


def test_discrete_gram_is_identity():
    nodes, weights = gauss_nodes(0.0, 0.0, 64)
    values, _ = evaluate_orthonormal(0.0, 0.0, 63, nodes)
    gram = (values * weights) @ values.T
    assert np.abs(gram - np.eye(64)).max() < 5e-14


def test_derivatives_match_finite_differences():
    x = np.linspace(-0.9, 0.9, 25)
    h = 1e-6
    values_p, _ = evaluate_orthonormal(0.5, -0.3, 12, x + h)
    values_m, _ = evaluate_orthonormal(0.5, -0.3, 12, x - h)
    _, derivs = evaluate_orthonormal(0.5, -0.3, 12, x)
    fd = (values_p - values_m) / (2 * h)
    assert np.abs(derivs - fd).max() < 1e-6 * max(1.0, np.abs(derivs).max())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-0.9, 1.5),
    alpha=st.floats(-0.9, 1.5),
    n=st.integers(2, 40),
)
def test_rule_invariants_hold_for_any_parameters(gamma, alpha, n):
    nodes, weights = gauss_nodes(gamma, alpha, n)
    assert np.all(weights > 0.0)
    assert np.all(nodes > -1.0) and np.all(nodes < 1.0)
    assert np.all(np.diff(nodes) > 0.0)
    _, _, mu0 = recurrence_coefficients(gamma, alpha, 2)
    assert float(weights.sum()) == pytest.approx(mu0, rel=1e-11)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-1.0, 6.0, exclude_min=True),
    alpha=st.floats(-1.0, 6.0, exclude_min=True),
    n=st.integers(1, 300),
)
def test_rule_and_tables_are_bitwise_those_of_the_full_tables(gamma, alpha, n):
    nodes, weights = gauss_nodes(gamma, alpha, n)
    assert _same_bits(weights, _tabulated_weights(gamma, alpha, nodes))
    _assert_matches_the_oracle(gamma, alpha, nodes, weights)
    values, derivs = evaluate_orthonormal(gamma, alpha, n, nodes)
    ref_values, ref_derivs = _reference_tables(gamma, alpha, n, nodes)
    assert _same_bits(values, ref_values)
    assert _same_bits(derivs, ref_derivs)


ORACLE_WEIGHTS = [(0.0, 0.0), (-0.5, -0.5), (3.0, -0.5), (5.0, 20.0), (12.0, -0.9), (-0.99, -0.99), (40.0, 40.0),
                  (100.0, 100.0)]


@pytest.mark.parametrize("n", [2, 23, 64, 256, 512])
@pytest.mark.parametrize("gamma, alpha", ORACLE_WEIGHTS)
def test_rule_matches_the_refined_eigenvalue_rule(gamma, alpha, n):
    _assert_matches_the_oracle(gamma, alpha, *gauss_nodes(gamma, alpha, n))


def test_two_nodes_at_one_zero_beside_a_zero_without_a_node_are_caught():
    # Newton's method sends the guesses of two nodes to the zero near 0.0031
    # and none to the one near -0.0603; the counts at the midpoints still read
    # n, n-1, ..., 0, and only the Newton radii show the pair
    _assert_matches_the_oracle(0.0, 66.72831814696596, *gauss_nodes(0.0, 66.72831814696596, 35))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-1.0, 120.0, exclude_min=True),
    alpha=st.floats(-1.0, 120.0, exclude_min=True),
    n=st.integers(2, 96),
)
def test_rule_matches_the_refined_eigenvalue_rule_for_heavy_weights(gamma, alpha, n):
    _assert_matches_the_oracle(gamma, alpha, *gauss_nodes(gamma, alpha, n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-1.0, 20.0, exclude_min=True),
    alpha=st.floats(-1.0, 20.0, exclude_min=True),
    n=st.integers(2, 1024),
)
def test_nodes_separate_the_weight_as_the_gauss_rule_must(gamma, alpha, n):
    # Chebyshev-Markov-Stieltjes (Szego, Thm 3.41.1): the weights up to a
    # node bracket the measure of [-1, x_k], which is a regularised
    # incomplete beta function; no eigenvalue rule is consulted.
    nodes, weights = gauss_nodes(gamma, alpha, n)
    _, _, mu0 = recurrence_coefficients(gamma, alpha, 0)
    mass = mu0 * scipy.special.betainc(alpha + 1.0, gamma + 1.0, (1.0 + nodes) / 2.0)
    upto = np.cumsum(weights)
    tol = 1e-13 * mu0
    assert np.all(upto - weights <= mass + tol)
    assert np.all(mass <= upto + tol)


def _pair_two_guesses(monkeypatch, every_other=False):
    """Give the second node from each end (every other node with
    ``every_other``) the asymptotic guess of its neighbour, so that Newton's
    method sends both to one zero; return the ranks of the zeros handed to
    the brackets (rank r: r zeros at or above it)."""
    guesses, isolate = _recurrence._angle_guesses, _recurrence._isolate
    bracketed = []

    def paired(near, far, n, m):
        phi = guesses(near, far, n, m)
        if every_other:
            phi[1::2] = phi[::2][: phi[1::2].size]
        elif m > 1:
            phi[1] = phi[0]
        return phi

    def spy(a, b, lo, hi, above_lo, above_hi, rank):
        bracketed.extend(rank.tolist())
        return isolate(a, b, lo, hi, above_lo, above_hi, rank)

    monkeypatch.setattr(_recurrence, "_angle_guesses", paired)
    monkeypatch.setattr(_recurrence, "_isolate", spy)
    return bracketed


@pytest.mark.parametrize("gamma, alpha, n", [(0.0, 0.0, 64), (3.0, -0.5, 256), (5.0, 20.0, 128)])
def test_two_nodes_in_one_gap_fail_the_certificate_and_the_brackets_recover_the_rule(gamma, alpha, n, monkeypatch):
    expected = gauss_nodes(gamma, alpha, n)
    bracketed = _pair_two_guesses(monkeypatch)
    nodes, weights = gauss_nodes(gamma, alpha, n)
    # both nodes of a pair share a gap with one zero, so neither is kept
    assert bracketed == [1, 2, n - 1, n]
    _assert_same_rule(gamma, alpha, (nodes, weights), expected)
    _assert_matches_the_oracle(gamma, alpha, nodes, weights)


def test_bracketed_rule_keeps_linear_memory(monkeypatch):
    bracketed = _pair_two_guesses(monkeypatch, every_other=True)
    tracemalloc.start()
    try:
        nodes, _ = gauss_nodes(40.0, 40.0, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bracketed) == 1024  # every pair shares its gaps, so every zero is bracketed
    assert peak <= 4 * 2**20
    assert np.all(np.diff(nodes) > 0.0)


def test_rule_outside_the_float_range_names_its_parameters():
    with pytest.raises(ExactnessError, match=r"1024 nodes for \(gamma, alpha\) = \(200\.0, 200\.0\)"):
        gauss_nodes(200.0, 200.0, 1024)


def test_derivatives_stop_after_the_requested_rows():
    nodes, _ = gauss_nodes(1.5, -0.5, 40)
    coeffs = recurrence_coefficients(1.5, -0.5, 30)
    full = list(orthonormal_rows(*coeffs, nodes, deriv_rows=31))
    partial = list(orthonormal_rows(*coeffs, nodes, deriv_rows=12))
    for k, ((v, d), (v_part, d_part)) in enumerate(zip(full, partial)):
        assert _same_bits(v_part, v)
        if k < 12:
            assert _same_bits(d_part, d)
        else:
            assert d_part is None


def test_rule_keeps_linear_memory():
    # The three (n + 1) x n tables took a 128 MB peak at 2048 nodes.
    tracemalloc.start()
    try:
        gauss_nodes(3.0, -0.5, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_total_mass_keeps_the_direct_gamma_form_where_it_is_finite():
    for gamma, alpha in ((0.0, 0.0), (3.0, -0.5), (-0.5, -0.5), (80.0, 80.0)):
        direct = 2.0 ** (gamma + alpha + 1.0) * math.gamma(gamma + 1.0) * math.gamma(alpha + 1.0) / math.gamma(
            gamma + alpha + 2.0
        )
        assert recurrence_coefficients(gamma, alpha, 2)[2] == direct


@pytest.mark.parametrize("gamma, alpha", [(100.0, 100.0), (160.0, 5.0), (200.0, 200.0)])
def test_total_mass_survives_gamma_overflow(gamma, alpha):
    # math.gamma raises at (100, 100) and (200, 200); at (160, 5) the product
    # of the first two factors overflows to inf before the division
    _, _, mu0 = recurrence_coefficients(gamma, alpha, 2)
    beta_form = 2.0 ** (gamma + alpha + 1.0) * scipy.special.beta(gamma + 1.0, alpha + 1.0)
    assert mu0 == pytest.approx(beta_form, rel=1e-12)
    _, weights = gauss_nodes(gamma, alpha, 32)
    assert float(weights.sum()) == pytest.approx(mu0, rel=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: JacobiParams(-1, 0),
        lambda: recurrence_coefficients(0, -1.5, 3),
        lambda: gauss_nodes(-1, 0, 4),
        lambda: RunConfig(gamma=-1).validate(),
    ],
    ids=["JacobiParams", "recurrence_coefficients", "gauss_nodes", "RunConfig.validate"],
)
def test_every_entry_point_rejects_exponents_at_most_minus_one(build, monkeypatch):
    def recurrence_reached(*args, **kwargs):
        raise AssertionError("the exponents reached the recurrence unchecked")

    monkeypatch.setattr(_recurrence, "orthonormal_rows", recurrence_reached)
    with pytest.raises(DomainError) as excinfo:
        build()
    assert str(excinfo.value) == "weight exponents must exceed -1"

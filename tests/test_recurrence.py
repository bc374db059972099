"""Quadrature and orthonormal-recurrence tests against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from heatframe import DomainError
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
    rows = list(orthonormal_rows(*recurrence_coefficients(gamma, alpha, degree), np.asarray(x, dtype=float)))
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


def _reference_rule(gamma, alpha, n):
    """The rule from three full tables: two Newton passes and a column sum."""
    x, _ = scipy.special.roots_jacobi(n, gamma, alpha)
    for _ in range(2):
        values, derivs = _reference_tables(gamma, alpha, n, x)
        x = x - values[n] / derivs[n]
    x = np.clip(x, -1.0, 1.0)
    values, _ = _reference_tables(gamma, alpha, n, x)
    w = 1.0 / np.sum(values[:n] ** 2, axis=0)
    order = np.argsort(x)
    return x[order], w[order]


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
    ref_nodes, ref_weights = _reference_rule(gamma, alpha, n)
    assert _same_bits(nodes, ref_nodes)
    assert _same_bits(weights, ref_weights)
    values, derivs = evaluate_orthonormal(gamma, alpha, n, nodes)
    ref_values, ref_derivs = _reference_tables(gamma, alpha, n, nodes)
    assert _same_bits(values, ref_values)
    assert _same_bits(derivs, ref_derivs)


def test_derivatives_stop_after_the_requested_rows():
    nodes, _ = gauss_nodes(1.5, -0.5, 40)
    coeffs = recurrence_coefficients(1.5, -0.5, 30)
    full = list(orthonormal_rows(*coeffs, nodes))
    partial = list(orthonormal_rows(*coeffs, nodes, deriv_rows=12))
    for k, ((v, d), (v_part, d_part)) in enumerate(zip(full, partial)):
        assert _same_bits(v_part, v)
        if k < 12:
            assert _same_bits(d_part, d)
        else:
            assert d_part is None


def test_rule_keeps_linear_memory():
    # The three (n + 1) x n tables took a 128 MB peak at 2048 nodes.
    gauss_nodes(3.0, -0.5, 8)  # pay scipy's import outside the trace
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
    def scipy_reached(*args):
        raise AssertionError("the exponents reached scipy unchecked")

    monkeypatch.setattr(scipy.special, "roots_jacobi", scipy_reached)
    with pytest.raises(DomainError) as excinfo:
        build()
    assert str(excinfo.value) == "weight exponents must exceed -1"

"""Spectral basis, operator action, energy form, and carre du champ."""

import math

import numpy as np
import pytest

from heatframe import (
    DomainError,
    ExactnessError,
    JacobiParams,
    MetricMeasureSpace,
    TruncationError,
    apply_L,
    build_basis,
    carre_du_champ,
    carre_du_champ_gradient,
    coefficients,
    derivative_values,
    effective_degree,
    eigenvalue,
    form_omega,
    make_jacobi_space,
    random_polynomials,
    synthesize,
    verify_poincare,
)


def test_eigenvalues_closed_form():
    flat = JacobiParams(0.0, 0.0)
    assert [eigenvalue(i, flat) for i in range(4)] == [0.0, 2.0, 6.0, 12.0]
    skew = JacobiParams(0.5, -0.3)
    assert eigenvalue(1, skew) == pytest.approx(2.2, rel=1e-15)
    assert eigenvalue(3, skew) == pytest.approx(3 * (3 + 1.2), rel=1e-15)


def test_basis_rows_match_analytic_polynomials(legendre_space, legendre_basis):
    x = legendre_space.points
    assert legendre_basis.values[0] == pytest.approx(
        np.full(64, 1 / math.sqrt(2)), abs=1e-13
    )
    assert legendre_basis.values[1] == pytest.approx(
        math.sqrt(1.5) * x, abs=1e-13
    )
    assert legendre_basis.eigenvalues[0] == 0.0
    assert np.all(np.diff(legendre_basis.eigenvalues) > 0.0)


def test_basis_is_orthonormal(legendre_space, legendre_basis):
    gram = (legendre_basis.values * legendre_space.weights) @ legendre_basis.values.T
    assert np.abs(gram - np.eye(legendre_basis.size)).max() < 1e-12


def test_basis_rejects_bad_configurations(legendre_space):
    params = JacobiParams(0.0, 0.0)
    with pytest.raises(ExactnessError):
        build_basis(legendre_space, params, 64)
    # unit masses at -1, 1/2 and 1 are no Gauss rule of the flat weight:
    # they give P_0 and P_1 the inner product sqrt(3)/4
    other = MetricMeasureSpace(np.array([-1.0, 0.5, 1.0]), np.ones(3))
    with pytest.raises(ExactnessError, match="Gram defect"):
        build_basis(other, params, 1)
    with pytest.raises(DomainError):
        JacobiParams(-1.0, 0.0)


def test_gram_check_rejects_a_basis_of_another_weight():
    # Legendre polynomials are not orthonormal under (1 - x)^0.5.
    space = make_jacobi_space(0.5, 0.0, 64)
    with pytest.raises(ExactnessError, match="Gram defect"):
        build_basis(space, JacobiParams(0.0, 0.0), 40)
    build_basis(space, JacobiParams(0.5, 0.0), 40)


def test_analysis_synthesis_round_trip(legendre_basis, rng):
    coeffs = rng.standard_normal(legendre_basis.size)
    f = synthesize(legendre_basis, coeffs)
    assert coefficients(legendre_basis, f) == pytest.approx(coeffs, rel=1e-11, abs=1e-12)


def test_effective_degree_ignores_roundoff_tail():
    coeffs = np.array([0.0, 0.0, 1.0, 1e-15])
    assert effective_degree(coeffs) == 2


def test_operator_action_closed_forms(legendre_space, legendre_basis):
    x = legendre_space.points
    assert apply_L(legendre_basis, x) == pytest.approx(2.0 * x, abs=1e-10)
    # L(x^2) = -d/dx[(1-x^2) d/dx x^2] = 6x^2 - 2.
    assert apply_L(legendre_basis, x**2) == pytest.approx(6.0 * x**2 - 2.0, abs=1e-9)


def test_derivatives_closed_form(legendre_space, legendre_basis):
    x = legendre_space.points
    assert derivative_values(legendre_basis, x**2) == pytest.approx(2.0 * x, abs=1e-10)


def test_energy_form_on_first_mode(legendre_space, legendre_basis):
    p1 = legendre_basis.values[1]
    # omega(f, f) = beta_1 ||f||^2 = 2 for the unit-norm first mode.
    assert form_omega(legendre_basis, p1, p1) == pytest.approx(2.0, rel=1e-12)
    f = legendre_basis.values[2]
    assert form_omega(legendre_basis, p1, f) == pytest.approx(
        form_omega(legendre_basis, f, p1), rel=1e-12, abs=1e-13
    )


def test_carre_du_champ_closed_form(legendre_space, legendre_basis):
    x = legendre_space.points
    # Gamma(x, x) = (2x Lx - L(x^2))/2 = 1 - x^2.
    assert carre_du_champ(legendre_basis, x, x) == pytest.approx(
        1.0 - x**2, abs=1e-10
    )


def test_carre_du_champ_matches_gradient_route(legendre_basis, rng):
    polys = random_polynomials(legendre_basis, 40, 20, rng)
    for i in range(0, 40, 2):
        f, g = polys[i], polys[i + 1]
        via_operator = carre_du_champ(legendre_basis, f, g)
        via_gradient = carre_du_champ_gradient(legendre_basis, f, g)
        assert np.abs(via_operator - via_gradient).max() <= 1e-8
        energy = carre_du_champ(legendre_basis, f, f)
        assert energy.min() >= -1e-10


def test_carre_du_champ_rejects_untrackable_products(legendre_basis):
    top = legendre_basis.values[legendre_basis.degree]
    with pytest.raises(TruncationError):
        carre_du_champ(legendre_basis, top, top)


def test_random_polynomials_have_unit_norm(legendre_space, legendre_basis, rng):
    polys = random_polynomials(legendre_basis, 8, 12, rng)
    assert polys.shape == (8, 64)
    norms = (polys**2 * legendre_space.weights).sum(axis=1)
    assert norms == pytest.approx(np.ones(8), rel=1e-12)


def test_poincare_fit_and_candidate_bound(legendre_basis):
    rng = np.random.default_rng(21)
    balls = [(float(c), float(r)) for c, r in zip(
        rng.uniform(-0.9, 0.9, size=8), rng.uniform(0.2, 1.0, size=8)
    )]
    reports = verify_poincare(legendre_basis, balls, np.random.default_rng(2))
    by_id = {r.check_id: r for r in reports}
    fit = by_id["poincare.fit"]
    assert fit.passed
    assert math.isfinite(fit.context["K_fit"]) and fit.context["K_fit"] > 0.0
    bounded = verify_poincare(
        legendre_basis,
        balls,
        np.random.default_rng(2),
        K_candidate=1e6,
    )
    by_id = {r.check_id: r for r in bounded}
    assert by_id["poincare.bound"].passed

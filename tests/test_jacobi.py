"""Spectral basis, on-demand derivative rows, and the Poincare fit."""

import math
from dataclasses import fields

import numpy as np
import pytest

from heatframe import (
    ContractError,
    DomainError,
    ExactnessError,
    JacobiParams,
    MetricMeasureSpace,
    SpectralBasis,
    build_basis,
    coefficients,
    eigenvalue,
    make_jacobi_space,
    random_polynomials,
    synthesize,
    verify_poincare,
)
from heatframe.jacobi import rows_with_derivatives

FLAT = JacobiParams(0.0, 0.0)


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


def test_basis_is_the_triple_space_values_eigenvalues():
    assert [field.name for field in fields(SpectralBasis)] == ["space", "values", "eigenvalues"]


def test_on_demand_derivatives_closed_form(legendre_space, legendre_basis):
    # P_1 = sqrt(3/2) x and P_2 = sqrt(5/2) (3x^2 - 1)/2 for the flat weight.
    x = legendre_space.points
    values, derivs = rows_with_derivatives(FLAT, x, 3)
    assert values == pytest.approx(legendre_basis.values[:3], abs=1e-13)
    assert derivs[0] == pytest.approx(np.zeros(64), abs=0.0)
    assert derivs[1] == pytest.approx(np.full(64, math.sqrt(1.5)), rel=1e-14)
    assert derivs[2] == pytest.approx(3.0 * math.sqrt(2.5) * x, rel=1e-13, abs=1e-14)


def test_random_polynomials_have_unit_norm(legendre_space, legendre_basis, rng):
    polys = random_polynomials(legendre_basis, 8, 12, rng)
    assert polys.shape == (8, 64)
    norms = (polys**2 * legendre_space.weights).sum(axis=1)
    assert norms == pytest.approx(np.ones(8), rel=1e-12)


def test_poincare_fit(legendre_basis):
    rng = np.random.default_rng(21)
    balls = [(float(c), float(r)) for c, r in zip(
        rng.uniform(-0.9, 0.9, size=8), rng.uniform(0.2, 1.0, size=8)
    )]
    fit = verify_poincare(legendre_basis, FLAT, balls, np.random.default_rng(2))
    assert fit.check_id == "poincare.fit" and fit.passed
    assert math.isfinite(fit.context["K_fit"]) and fit.context["K_fit"] > 0.0


def test_poincare_rejects_exponents_of_another_weight(legendre_basis):
    # The derivatives of another weight's polynomials would fit a Gamma the
    # basis does not carry.
    with pytest.raises(ContractError, match="weight exponents"):
        verify_poincare(legendre_basis, JacobiParams(0.5, 0.0), [(0.0, 0.5)], np.random.default_rng(0))

"""Spectral basis for the Jacobi operator and the Poincare fit on its balls.

The operator L acts on functions over [-1, 1] with weight
(1-x)^gamma (1+x)^alpha and has the orthonormal polynomial eigenbasis

    L P_i = beta_i P_i,    beta_i = i (i + gamma + alpha + 1).

On a Gauss quadrature space the discrete coefficient map is exact for
polynomials up to the basis degree, so spectral multipliers and heat kernels
are evaluated through the eigenexpansion.  The basis holds nodal values only.
The one first-order quantity a verdict reads, the squared-gradient density

    Gamma(f) = (1 - x^2) f'^2

of the Poincare fit, takes the derivatives of its few low rows from the
recurrence when the fit runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._recurrence import JacobiParams, orthonormal_rows, recurrence_coefficients
from .errors import ContractError, DomainError, ExactnessError, SamplingError
from .geometry import MetricMeasureSpace, ball_members
from .reporting import VerificationReport, make_report

_ORTHO_TOL = 1e-10
_ROW_MATCH_TOL = 1e-8  # recurrence rows against the basis rows, relative to their largest entry
POINCARE_FUNCTIONS = 20  # random polynomials per ball in the Poincare fit
POINCARE_DEGREE = 10  # their degree, capped at the basis degree
_BLOCK_BYTES = 8 * 2**20  # one node block of the recurrence: every row at its nodes
_PANEL_ROWS = 256  # Gram rows one block's product updates at a time


def eigenvalue(i: int, params: JacobiParams) -> float:
    """beta_i = i (i + gamma + alpha + 1)."""
    if i < 0:
        raise DomainError("eigenvalue index must be nonnegative")
    return float(i) * (float(i) + params.gamma + params.alpha + 1.0)


def eigenvalues(params: JacobiParams, degree: int) -> np.ndarray:
    """beta_0..beta_degree."""
    return np.array([eigenvalue(i, params) for i in range(degree + 1)])


@dataclass(frozen=True)
class SpectralBasis:
    """Nodal table of the orthonormal eigenbasis on a quadrature space.

    values[i, j] = P_i(x_j); rows are renormalized to exact unit discrete
    norm so that analysis followed by synthesis is an exact projection at
    the basis degree.
    """

    space: MetricMeasureSpace
    values: np.ndarray
    eigenvalues: np.ndarray

    @property
    def degree(self) -> int:
        return self.size - 1

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)


def build_basis(space: MetricMeasureSpace, params: JacobiParams, degree: int) -> SpectralBasis:
    """Tabulate P_0..P_degree on the space and validate discrete orthonormality.

    The quadrature rule is exact through polynomial degree 2 n - 1, so the
    basis degree may not exceed n - 1; past that the discrete Gram matrix
    stops being the identity and every spectral operation silently degrades.

    The recurrence runs over blocks of nodes.  Each block adds its share
    S_b S_b^T, with S = V sqrt(w) formed in one reused block buffer, to the
    Gram matrix of every row.  The matrix is symmetric, so only its upper
    part is formed, packed as panels: panel p holds rows
    [top, top + _PANEL_ROWS) from column top on.  The products cost what a
    symmetric rank-k update costs, and the panels together hold about half
    the matrix.  Each panel is normalised and reduced to its largest defect
    on its own.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if degree > space.n - 1:
        raise ExactnessError(
            f"degree {degree} exceeds the exactness limit {space.n - 1} of an {space.n}-node rule"
        )
    size = degree + 1
    a, b, mu0 = recurrence_coefficients(params.gamma, params.alpha, degree)
    values = np.empty((size, space.n))
    tops = range(0, size, _PANEL_ROWS)
    panels = [np.zeros((min(_PANEL_ROWS, size - top), size - top)) for top in tops]
    root_w = np.sqrt(space.weights)
    width = min(space.n, max(1, _BLOCK_BYTES // (8 * size)))
    buffer = np.empty((size, width))
    for lo in range(0, space.n, width):
        nodes = slice(lo, min(lo + width, space.n))
        for k, (v, _) in enumerate(orthonormal_rows(a, b, mu0, space.points[nodes], deriv_rows=0)):
            values[k, nodes] = v
        block = np.multiply(values[:, nodes], root_w[nodes], out=buffer[:, : nodes.stop - lo])
        for top, panel in zip(tops, panels):
            panel += block[top : top + _PANEL_ROWS] @ block[top:].T
    norms = np.sqrt((values * values) @ space.weights)
    values /= norms[:, None]
    # the Gram matrix of the normalized rows, from the raw one
    scale = 1.0 / np.sqrt(np.concatenate([np.diagonal(panel) for panel in panels]))
    defect = 0.0
    for top, panel in zip(tops, panels):
        diag = np.arange(panel.shape[0])
        panel *= scale[top : top + diag.size, None]
        panel *= scale[top:]
        panel[diag, diag] -= 1.0
        defect = max(defect, float(np.abs(panel, out=panel).max()))
    if defect > _ORTHO_TOL:
        raise ExactnessError(f"discrete Gram defect {defect:.2e}; space does not match the weight")
    return SpectralBasis(space=space, values=values, eigenvalues=eigenvalues(params, degree))


def coefficients(basis: SpectralBasis, f: np.ndarray) -> np.ndarray:
    """Discrete spectral coefficients c_i = <f, P_i>."""
    f = np.asarray(f, dtype=float)
    if f.shape != (basis.space.n,):
        raise ContractError("nodal values must align with the space")
    return basis.values @ (basis.space.weights * f)


def synthesize(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Nodal values of sum_i c_i P_i."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.size,):
        raise ContractError("coefficient vector must match the basis size")
    return coeffs @ basis.values


def multiplier_table(rows: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Symmetric table of sum_i m_i rows[i, x] rows[i, y] over the columns of
    ``rows`` (basis values at some or all nodes)."""
    table = rows.T @ (multiplier[:, None] * rows)
    return 0.5 * (table + table.T)


def _random_coefficients(
    basis: SpectralBasis, count: int, max_degree: int, rng: np.random.Generator
) -> np.ndarray:
    if count < 1:
        raise DomainError("need at least one function")
    if max_degree < 0 or max_degree > basis.degree:
        raise DomainError("max_degree must lie within the basis degree")
    coeffs = rng.standard_normal((count, max_degree + 1))
    norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return coeffs / norms


def random_polynomials(
    basis: SpectralBasis,
    count: int,
    max_degree: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows of random polynomials with i.i.d. normal spectral coefficients.

    Each row has exact unit discrete L2 norm, which keeps absolute
    tolerances meaningful across draws.
    """
    return _random_coefficients(basis, count, max_degree, rng) @ basis.values[: max_degree + 1]


def rows_with_derivatives(params: JacobiParams, x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """P_0..P_{count-1} and P_0'..P_{count-1}' at the points x, as the
    recurrence of the weight gives them: raw rows, not renormalized on a rule."""
    a, b, mu0 = recurrence_coefficients(params.gamma, params.alpha, count - 1)
    rows = list(orthonormal_rows(a, b, mu0, x, deriv_rows=count))
    return np.array([v for v, _ in rows]), np.array([d for _, d in rows])


def verify_poincare(
    basis: SpectralBasis,
    params: JacobiParams,
    balls: Sequence[tuple[float, float]],
    rng: np.random.Generator,
) -> VerificationReport:
    """Fit the smallest K with  int_B |f - f_B|^2 <= K r^2 int_B dGamma(f, f)
    over POINCARE_FUNCTIONS random polynomials of degree
    min(POINCARE_DEGREE, basis degree).

    Gamma here is (1 - x^2) f'^2, with f' summed from the drawn coefficients
    over the derivative rows from the recurrence of ``params`` (ContractError
    if its rows are not the basis rows), so the fit does not feed on the
    spectral identity it is meant to probe.  Balls need radii in (0, 1];
    pairs where both sides vanish are skipped.  The fit passes when K stays
    finite.
    """
    if not balls:
        raise SamplingError("need at least one ball")
    for _, r in balls:
        if not (0.0 < r <= 1.0):
            raise DomainError("ball radii must lie in (0, 1]")
    space = basis.space
    degree = min(POINCARE_DEGREE, basis.degree)
    coeffs = _random_coefficients(basis, POINCARE_FUNCTIONS, degree, rng)
    rows = basis.values[: degree + 1]
    raw, derivs = rows_with_derivatives(params, space.points, degree + 1)
    if np.abs(raw - rows).max() > _ROW_MATCH_TOL * np.abs(rows).max():
        raise ContractError("the basis rows are not the orthonormal rows of these weight exponents")
    fs = coeffs @ rows
    fps = coeffs @ derivs
    w = space.weights
    x = space.points
    # energy densities (1 - x^2) f'^2, one per function, shared by every ball
    densities = (1.0 - x * x) * fps * fps
    K_fit = 0.0
    n_pairs = 0
    tiny = 1e-14
    for center, r in balls:
        members = ball_members(space, center, r)
        if not members.size:
            continue
        wb = w[members]
        for f, density in zip(fs, densities):
            fb = float(np.dot(wb, f[members]) / wb.sum())
            lhs = float(np.dot(wb, (f[members] - fb) ** 2))
            energy = float(np.dot(wb, density[members]))
            if lhs <= tiny and r * r * energy <= tiny:
                continue
            n_pairs += 1
            if energy <= 0.0:
                K_fit = float("inf")
            else:
                K_fit = max(K_fit, lhs / (r * r * energy))
    context = {"K_fit": K_fit, "n_balls": len(balls), "n_functions": POINCARE_FUNCTIONS, "n_pairs": n_pairs}
    return make_report("poincare.fit", 0.0 if math.isfinite(K_fit) else 1.0, 0.0, context=context)

"""Spectral basis for the Jacobi operator and its energy forms.

The operator L acts on functions over [-1, 1] with weight
(1-x)^gamma (1+x)^alpha and has the orthonormal polynomial eigenbasis

    L P_i = beta_i P_i,    beta_i = i (i + gamma + alpha + 1).

On a Gauss quadrature space the discrete coefficient map is exact for
polynomials up to the basis degree, so L, spectral multipliers, and heat
kernels are all evaluated through the eigenexpansion.  The module also
carries the two first-order forms attached to L: the integrated energy

    omega(f, g) = integral of (1 - x^2) f' g'  d sigma,

and the pointwise squared-gradient field

    carre(f, g) = (f L g + g L f - L(fg)) / 2,

which for polynomials agrees with (1 - x^2) f' g' node by node.  The order
of terms in carre is chosen so that carre(f, f) is a nonnegative energy
density; the opposite ordering flips its sign.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._recurrence import JacobiParams, orthonormal_rows, recurrence_coefficients
from .errors import (
    ContractError,
    DomainError,
    ExactnessError,
    SamplingError,
    TruncationError,
    TruncationWarning,
)
from .geometry import MetricMeasureSpace, ball_members
from .reporting import VerificationReport, make_report

_ORTHO_TOL = 1e-10
_COEFF_CUTOFF = 1e-12
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
    """Nodal tables of the orthonormal eigenbasis on a quadrature space.

    values[i, j] = P_i(x_j) and deriv_values[i, j] = P_i'(x_j); rows are
    renormalized to exact unit discrete norm so that analysis followed by
    synthesis is an exact projection at the stored degree.

    A basis may store only its leading rows (``build_basis(...,
    stored_rows=K)``) while keeping its degree and every eigenvalue.  Read
    the tables through ``rows`` and ``deriv_rows``, which raise ContractError
    for a row that is not stored rather than return fewer rows.
    """

    space: MetricMeasureSpace
    params: JacobiParams
    degree: int
    values: np.ndarray
    deriv_values: np.ndarray
    eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return self.degree + 1

    def rows(self, count: int | None = None) -> np.ndarray:
        """P_0..P_{count-1} at the nodes (every row by default)."""
        return _leading(self.values, self.size if count is None else count)

    def deriv_rows(self, count: int | None = None) -> np.ndarray:
        """P_0'..P_{count-1}' at the nodes (every row by default)."""
        return _leading(self.deriv_values, self.size if count is None else count)


def _leading(table: np.ndarray, count: int) -> np.ndarray:
    if count > table.shape[0]:
        raise ContractError(
            f"rows 0..{count - 1} requested, but the basis stores rows 0..{table.shape[0] - 1} only"
        )
    return table[:count]


def build_basis(
    space: MetricMeasureSpace, params: JacobiParams, degree: int, *, stored_rows: int | None = None
) -> SpectralBasis:
    """Tabulate P_0..P_degree on the space and validate discrete orthonormality.

    The quadrature rule is exact through polynomial degree 2 n - 1, so the
    basis degree may not exceed n - 1; past that the discrete Gram matrix
    stops being the identity and every spectral operation silently degrades.

    The recurrence runs over blocks of nodes.  Each block adds its share
    S_b S_b^T, with S = V sqrt(w), to the Gram matrix of every row, so the
    check covers all degree + 1 rows while only ``stored_rows`` of them (all
    by default) are kept, with their derivatives.  The share goes in by
    panels of rows on and above the diagonal: the matrix is symmetric, the
    product costs what a symmetric rank-k update costs, and no temporary
    of the matrix's size is made.  Entries below the diagonal panels stay 0.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if degree > space.n - 1:
        raise ExactnessError(
            f"degree {degree} exceeds the exactness limit {space.n - 1} of an {space.n}-node rule"
        )
    size = degree + 1
    keep = size if stored_rows is None else stored_rows
    if not 1 <= keep <= size:
        raise DomainError("stored rows must lie in [1, degree + 1]")
    a, b, mu0 = recurrence_coefficients(params.gamma, params.alpha, degree)
    values = np.empty((keep, space.n))
    derivs = np.empty((keep, space.n))
    gram = np.zeros((size, size))
    root_w = np.sqrt(space.weights)
    width = max(1, _BLOCK_BYTES // (8 * size))
    for lo in range(0, space.n, width):
        nodes = slice(lo, min(lo + width, space.n))
        block = np.empty((size, nodes.stop - lo))
        for k, (v, d) in enumerate(orthonormal_rows(a, b, mu0, space.points[nodes], deriv_rows=keep)):
            block[k] = v
            if k < keep:
                derivs[k, nodes] = d
        values[:, nodes] = block[:keep]
        block *= root_w[nodes]
        for top in range(0, size, _PANEL_ROWS):
            panel = slice(top, top + _PANEL_ROWS)
            gram[panel, top:] += block[panel] @ block[top:].T
    norms = np.sqrt((values * values) @ space.weights)
    values /= norms[:, None]
    derivs /= norms[:, None]
    # the Gram matrix of the normalized rows, from the raw one
    scale = 1.0 / np.sqrt(np.diag(gram))
    gram *= scale[:, None]
    gram *= scale
    gram[np.diag_indices_from(gram)] -= 1.0
    defect = float(np.abs(gram, out=gram).max())
    if defect > _ORTHO_TOL:
        raise ExactnessError(f"discrete Gram defect {defect:.2e}; space does not match the weight")
    return SpectralBasis(
        space=space,
        params=params,
        degree=degree,
        values=values,
        deriv_values=derivs,
        eigenvalues=eigenvalues(params, degree),
    )


def coefficients(basis: SpectralBasis, f: np.ndarray) -> np.ndarray:
    """Discrete spectral coefficients c_i = <f, P_i>."""
    f = np.asarray(f, dtype=float)
    if f.shape != (basis.space.n,):
        raise ContractError("nodal values must align with the space")
    return basis.rows() @ (basis.space.weights * f)


def synthesize(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Nodal values of sum_i c_i P_i."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.size,):
        raise ContractError("coefficient vector must match the basis size")
    return coeffs @ basis.rows()


def multiplier_table(rows: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Symmetric table of sum_i m_i rows[i, x] rows[i, y] over the columns of
    ``rows`` (basis values at some or all nodes)."""
    table = rows.T @ (multiplier[:, None] * rows)
    return 0.5 * (table + table.T)


def effective_degree(coeffs: np.ndarray) -> int:
    """Largest index carrying non-negligible energy (0 for the zero vector)."""
    coeffs = np.asarray(coeffs, dtype=float)
    scale = float(np.linalg.norm(coeffs))
    if scale == 0.0:
        return 0
    significant = np.nonzero(np.abs(coeffs) > _COEFF_CUTOFF * scale)[0]
    return int(significant[-1]) if significant.size else 0


def apply_L(basis: SpectralBasis, f: np.ndarray, *, resid_tol: float = 1e-8) -> np.ndarray:
    """Apply the operator through the eigenexpansion.

    Content of f above the basis degree cannot be represented; if the
    analysis residual exceeds resid_tol relative to f a truncation warning
    is raised and the truncated result is returned.
    """
    f = np.asarray(f, dtype=float)
    c = coefficients(basis, f)
    resid = float(np.abs(f - synthesize(basis, c)).max())
    scale = max(1.0, float(np.abs(f).max()))
    if resid > resid_tol * scale:
        warnings.warn(
            f"analysis residual {resid:.2e} above the basis degree; result is truncated",
            TruncationWarning,
            stacklevel=2,
        )
    return synthesize(basis, basis.eigenvalues * c)


def derivative_values(basis: SpectralBasis, f: np.ndarray) -> np.ndarray:
    """Nodal derivative of the spectral representative of f."""
    return coefficients(basis, f) @ basis.deriv_rows()


def form_omega(basis: SpectralBasis, f: np.ndarray, g: np.ndarray) -> float:
    """Energy form: integral of (1 - x^2) f' g' against the weight."""
    fp = derivative_values(basis, f)
    gp = derivative_values(basis, g)
    x = basis.space.points
    return float(((1.0 - x * x) * fp * gp) @ basis.space.weights)


def carre_du_champ(basis: SpectralBasis, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise field (f Lg + g Lf - L(fg)) / 2.

    The product fg must stay within the basis degree, otherwise L(fg) is
    not computable exactly and the identity with (1 - x^2) f' g' breaks.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    cf = coefficients(basis, f)
    cg = coefficients(basis, g)
    if effective_degree(cf) + effective_degree(cg) > basis.degree:
        raise TruncationError("product degree exceeds the basis; enlarge the basis degree")
    lf = apply_L(basis, f)
    lg = apply_L(basis, g)
    lfg = apply_L(basis, f * g)
    return 0.5 * (f * lg + g * lf - lfg)


def carre_du_champ_gradient(basis: SpectralBasis, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Independent route to the same field: (1 - x^2) f' g' from the
    differentiated recurrence tables."""
    fp = derivative_values(basis, f)
    gp = derivative_values(basis, g)
    x = basis.space.points
    return (1.0 - x * x) * fp * gp


def _random_coefficients(
    basis: SpectralBasis, n_functions: int, max_degree: int, rng: np.random.Generator, normalize: bool
) -> np.ndarray:
    if n_functions < 1:
        raise DomainError("need at least one function")
    if max_degree < 0 or max_degree > basis.degree:
        raise DomainError("max_degree must lie within the basis degree")
    coeffs = rng.standard_normal((n_functions, max_degree + 1))
    if normalize:
        norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        coeffs = coeffs / norms
    return coeffs


def random_polynomials(
    basis: SpectralBasis,
    n_functions: int,
    max_degree: int,
    rng: np.random.Generator,
    *,
    normalize: bool = True,
) -> np.ndarray:
    """Rows of random polynomials with i.i.d. normal spectral coefficients.

    With normalize=True each row has exact unit discrete L2 norm, which
    keeps absolute tolerances meaningful across draws.
    """
    return _random_coefficients(basis, n_functions, max_degree, rng, normalize) @ basis.rows(max_degree + 1)


def verify_poincare(
    basis: SpectralBasis,
    balls: Sequence[tuple[float, float]],
    rng: np.random.Generator,
    *,
    n_functions: int = 20,
    max_degree: int = 10,
    K_candidate: float | None = None,
) -> list[VerificationReport]:
    """Fit the smallest K with  int_B |f - f_B|^2 <= K r^2 int_B dGamma(f, f).

    Gamma here is the squared-gradient density (1 - x^2) f'^2, with f'
    summed from the drawn coefficients over the derivative tables, so the
    fit reads rows 0..max_degree only and does not feed on the spectral
    identity it is meant to probe.  Balls need radii in (0, 1]; pairs where
    both sides vanish are skipped.  The fit passes when K stays finite; a
    second report checks K against an explicit candidate when one is given.
    """
    if not balls:
        raise SamplingError("need at least one ball")
    for _, r in balls:
        if not (0.0 < r <= 1.0):
            raise DomainError("ball radii must lie in (0, 1]")
    space = basis.space
    coeffs = _random_coefficients(basis, n_functions, max_degree, rng, True)
    fs = coeffs @ basis.rows(max_degree + 1)
    fps = coeffs @ basis.deriv_rows(max_degree + 1)
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
    context = {"K_fit": K_fit, "n_balls": len(balls), "n_functions": n_functions, "n_pairs": n_pairs}
    reports = [
        make_report(
            "poincare.fit",
            0.0 if math.isfinite(K_fit) else 1.0,
            0.0,
            context=context,
        )
    ]
    if K_candidate is not None:
        reports.append(
            make_report("poincare.bound", K_fit, float(K_candidate), context=context)
        )
    return reports

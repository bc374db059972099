"""Three-term recurrence for orthonormal polynomials of the weight
(1-x)^gamma (1+x)^alpha on [-1, 1].

Everything downstream (quadrature refinement, spectral bases) evaluates
polynomials through these routines so that nodes, weights, and basis tables
are consistent to machine precision.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents; both must exceed -1 for the measure to be finite."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if self.gamma <= -1.0 or self.alpha <= -1.0:
            raise DomainError("weight exponents must exceed -1")


def recurrence_coefficients(gamma: float, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (a, b, mu0) for the orthonormal recurrence up to degree n.

    The monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} is stated in
    the usual normalized form below; mu0 is the total mass of the weight.
    The k = 0 and k = 1 entries use algebraically canceled expressions so
    the formulas stay finite when gamma + alpha + 1 = 0.
    """
    JacobiParams(gamma, alpha)  # raises DomainError unless both exceed -1
    if n < 0:
        raise DomainError("degree must be nonnegative")
    s = gamma + alpha
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[0] = (alpha - gamma) / (s + 2.0)
    for k in range(1, n + 1):
        a[k] = (alpha * alpha - gamma * gamma) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
        if k == 1:
            b[1] = 4.0 * (1.0 + gamma) * (1.0 + alpha) / ((2.0 + s) ** 2 * (3.0 + s))
        else:
            b[k] = (
                4.0 * k * (k + gamma) * (k + alpha) * (k + s)
                / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0))
            )
    try:
        mu0 = 2.0 ** (s + 1.0) * math.gamma(gamma + 1.0) * math.gamma(alpha + 1.0) / math.gamma(s + 2.0)
    except OverflowError:
        mu0 = math.inf
    if not math.isfinite(mu0):
        # the gamma factors overflow from gamma + alpha ~ 170 while mu0 stays modest
        mu0 = math.exp(
            (s + 1.0) * math.log(2.0) + math.lgamma(gamma + 1.0) + math.lgamma(alpha + 1.0) - math.lgamma(s + 2.0)
        )
    return a, b, mu0


def orthonormal_rows(
    a: np.ndarray, b: np.ndarray, mu0: float, x: np.ndarray, *, deriv_rows: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield (p_k(x), p_k'(x)) for k = 0..len(a) - 1 from the recurrence
    coefficients (a, b, mu0), holding only the two previous rows.

    Derivatives are computed for rows 0..deriv_rows - 1 (every row by
    default); past them the derivative slot is None.  Every yielded row is a
    fresh array the caller may keep.
    """
    n_derivs = len(a) if deriv_rows is None else deriv_rows
    v_prev = d_prev = None
    v = np.full(x.shape, 1.0 / math.sqrt(mu0))
    d = np.zeros(x.shape) if n_derivs > 0 else None
    yield v, d
    for k in range(len(a) - 1):
        sb_next = math.sqrt(b[k + 1])
        derivs = k + 1 < n_derivs
        if k == 0:
            v_next = (x - a[0]) * v / sb_next
            d_next = v / sb_next if derivs else None
        else:
            sb_prev = math.sqrt(b[k])
            v_next = ((x - a[k]) * v - sb_prev * v_prev) / sb_next
            d_next = ((x - a[k]) * d + v - sb_prev * d_prev) / sb_next if derivs else None
        v_prev, v = v, v_next
        d_prev, d = d, d_next
        yield v, d


def gauss_nodes(gamma: float, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the weight (1-x)^gamma (1+x)^alpha.

    scipy supplies the initial rule; two Newton corrections on the degree-n
    orthonormal polynomial then push the nodes to machine precision, and the
    weights are rebuilt as Christoffel numbers 1 / sum_i p_i(x_j)^2.  The
    refined rule keeps the discrete Gram matrix of p_0..p_{n-1} within a few
    ulp of the identity, which the spectral modules rely on.

    The recurrence runs row by row, so the rule needs O(n) memory.  The
    squares are added in row order 0..n-1, the order in which a sum over the
    rows of a tabulated (n, n) array adds them, so the weights are bitwise
    those of the tabulated form.
    """
    if n < 1:
        raise DomainError("need at least one quadrature node")
    from scipy.special import roots_jacobi

    a, b, mu0 = recurrence_coefficients(gamma, alpha, n)
    x, _ = roots_jacobi(n, gamma, alpha)
    for _ in range(2):
        p, dp = deque(orthonormal_rows(a, b, mu0, x), maxlen=1).pop()  # row n only
        x = x - p / dp
    x = np.clip(x, -1.0, 1.0)
    squares = np.zeros(n)
    for p, _ in orthonormal_rows(a[:n], b[:n], mu0, x, deriv_rows=0):
        squares += p ** 2
    w = 1.0 / squares
    order = np.argsort(x)
    return x[order], w[order]

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

from .errors import DomainError, ExactnessError


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents; both must exceed -1 for the measure to be finite."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and math.isfinite(self.alpha)):
            raise DomainError("weight exponents must be finite")
        if self.gamma <= -1.0 or self.alpha <= -1.0:
            raise DomainError("weight exponents must exceed -1")


def _total_mass(gamma: float, alpha: float) -> float:
    """2^(gamma + alpha + 1) Gamma(gamma + 1) Gamma(alpha + 1) / Gamma(gamma + alpha + 2),
    the mass of the weight; OverflowError where it exceeds the float range."""
    s = gamma + alpha
    try:
        mu0 = 2.0 ** (s + 1.0) * math.gamma(gamma + 1.0) * math.gamma(alpha + 1.0) / math.gamma(s + 2.0)
    except OverflowError:
        mu0 = math.inf
    if math.isfinite(mu0):
        return mu0
    # the gamma factors overflow from gamma + alpha ~ 170 while mu0 stays modest
    return math.exp(
        (s + 1.0) * math.log(2.0) + math.lgamma(gamma + 1.0) + math.lgamma(alpha + 1.0) - math.lgamma(s + 2.0)
    )


def recurrence_coefficients(gamma: float, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (a, b, mu0) for the orthonormal recurrence up to degree n.

    The monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} is stated in
    the usual normalized form below; mu0 is the total mass of the weight.
    The k = 0 and k = 1 entries use algebraically canceled expressions so
    the formulas stay finite when gamma + alpha + 1 = 0.  Raises
    ExactnessError when mu0 or a coefficient lies outside the float64 range.
    """
    JacobiParams(gamma, alpha)  # raises DomainError unless both are finite and exceed -1
    if n < 0:
        raise DomainError("degree must be nonnegative")
    s = gamma + alpha
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    try:
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
        mu0 = _total_mass(gamma, alpha)
    except OverflowError:  # a power or the mass past the float range
        mu0 = math.inf
    if not (math.isfinite(mu0) and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ExactnessError(
            f"the mass or the recurrence of the weight (gamma, alpha) = ({gamma!r}, {alpha!r}) "
            "lies outside the float64 range"
        )
    return a, b, mu0


def orthonormal_rows(
    a: np.ndarray, b: np.ndarray, mu0: float, x: np.ndarray, *, deriv_rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield (p_k(x), p_k'(x)) for k = 0..len(a) - 1 from the recurrence
    coefficients (a, b, mu0), holding only the two previous rows.

    Derivatives are computed for rows 0..deriv_rows - 1; past them the
    derivative slot is None.  Every yielded row is a fresh array the caller
    may keep.
    """
    v_prev = d_prev = None
    v = np.full(x.shape, 1.0 / math.sqrt(mu0))
    d = np.zeros(x.shape) if deriv_rows > 0 else None
    yield v, d
    for k in range(len(a) - 1):
        sb_next = math.sqrt(b[k + 1])
        derivs = k + 1 < deriv_rows
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


_EPS = float(np.finfo(float).eps)
# Converging nodes settle within ten passes from the asymptotic guesses; a
# node still moving after 16 is left to the brackets.  Bisection on the
# counts, and a bracketed node at worst, halve a bracket per pass, which
# takes any bracket in [-1, 1] under an ulp in 64 passes.
_NEWTON_PASSES = 16
_BRACKET_PASSES = 64


def _mcmahon_zeros(nu: float, k: np.ndarray) -> np.ndarray:
    """The k-th positive zeros of the Bessel function J_nu by McMahon's
    expansion (DLMF 10.21.19), accurate for k large against nu.  NaN where
    the asymptotic series' last term is not its smallest, as for the first
    zero when nu is near -1."""
    beta = (k + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    e = 8.0 * beta
    terms = (
        (mu - 1.0) / e,
        4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e**3),
        32.0 * (mu - 1.0) * (83.0 * mu**2 - 982.0 * mu + 3779.0) / (15.0 * e**5),
        64.0 * (mu - 1.0) * (6949.0 * mu**3 - 153855.0 * mu**2 + 1585743.0 * mu - 6277237.0) / (105.0 * e**7),
    )
    converging = np.abs(terms[3]) <= np.abs(terms[2])
    return np.where(converging, beta - sum(terms), np.nan)


def _angle_guesses(near: float, far: float, n: int, m: int) -> np.ndarray:
    """Asymptotic angles phi_k = arccos x_k, k = 1..m, of the m zeros of p_n
    nearest x = 1, where the weight has exponent ``near`` at x = 1 and ``far``
    at x = -1 (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013).

    Within pi/3 of the endpoint the Bessel-zero boundary formula is used
    (DLMF 18.16.8, zeros by McMahon) where McMahon's series holds, elsewhere
    Gatteschi and Pittaluga's interior formula; both use
    rho = n + (near + far + 1) / 2.
    """
    rho = n + (near + far + 1.0) / 2.0
    k = np.arange(1, m + 1)
    phi = (k + near / 2.0 - 0.25) * math.pi / rho
    guess = phi + ((0.25 - near * near) / np.tan(phi / 2.0) - (0.25 - far * far) * np.tan(phi / 2.0)) / (4.0 * rho * rho)
    near_end = phi <= math.pi / 3.0
    phi = _mcmahon_zeros(near, k[near_end]) / rho
    boundary = phi + (
        (near * near - 0.25) * (1.0 - phi / np.tan(phi)) / (2.0 * phi)
        - 0.25 * (near * near - far * far) * np.tan(phi / 2.0)
    ) / (rho * rho)
    guess[near_end] = np.where(np.isnan(boundary), guess[near_end], boundary)
    return guess


def _zeros_above(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The number of zeros of p_n, n = len(a) - 1, greater than each x.

    That is the number of sign changes in p_0(x), ..., p_n(x), counted as the
    negative ratios q_k = P_{k+1}(x) / P_k(x) of the monic polynomials,
    q_k = (x - a_k) - b_k / q_{k-1}: the pivots of the Jacobi matrix minus x,
    which cannot overflow.  An exact zero P_k(x) = 0 (p_k(0) = 0 for odd k
    under a symmetric weight) makes q_{k-1} = +0 and q_k = -inf, so the zero
    is skipped and the change across it counted once.
    """
    q = x - a[0]
    count = (q < 0.0).astype(np.intp)
    with np.errstate(divide="ignore"):
        for k in range(1, len(a) - 1):
            q = (x - a[k]) - b[k] / q
            count += q < 0.0
    return count


def _isolate(a, b, lo, hi, above_lo, above_hi, rank):
    """Shrink brackets (lo, hi] until each holds one zero of p_n: the one
    with ``rank`` zeros at or above it, where ``above_lo`` and ``above_hi``
    count the zeros above the bracket ends.  Every bracket that holds more
    than one zero is halved per pass; brackets that share a midpoint share
    its count."""
    for _ in range(_BRACKET_PASSES):
        todo = np.flatnonzero(above_lo - above_hi > 1)
        if todo.size == 0:
            break
        mid = (lo[todo] + hi[todo]) / 2.0
        distinct, index = np.unique(mid, return_inverse=True)
        above = _zeros_above(a, b, distinct)[index]
        up = above >= rank[todo]
        lo[todo[up]], above_lo[todo[up]] = mid[up], above[up]
        hi[todo[~up]], above_hi[todo[~up]] = mid[~up], above[~up]
    return lo, hi


def _newton(a, b, mu0, exponents, phi, side, tol, brackets=None):
    """Newton's method for the zeros of p_n, n = len(a) - 1, in the angle phi,
    with x = side * cos(phi) and phi measured from the nearer endpoint, so
    that x near +-1 keeps its precision.  Returns the nodes x and radii: a
    polynomial of degree n has a zero within n |p_n / p_n'| of any point, so
    a zero lies within (n + 1) |p_n / p_n'| of the node that last step made.
    A node whose p_n overflows comes back as NaN with radius inf.

    The iteration runs on p_n(x) sin(phi/2)^(near+1/2) cos(phi/2)^(far+1/2),
    with ``exponents`` = (gamma, alpha) the weight's exponents at x = 1 and
    x = -1: that factor takes out the growth of p_n towards the endpoints
    and leaves an oscillation of nearly constant amplitude, on which Newton
    steps from the asymptotic guesses land in one or two passes.

    A node stops once the plain Newton step p_n / (dp_n / dphi) is at most
    ``tol``; its last step is taken in x, as x - p_n / p_n'.  With brackets
    (lo, hi, rank), each holding exactly the zero with ``rank`` zeros at or
    above it, every sign of p_n narrows the bracket, and an iterate that
    leaves its bracket is replaced by the bracket's midpoint, so the
    iteration cannot lose its zero.
    """
    gamma, alpha = exponents
    phi, side = phi.copy(), side.copy()
    x, radius = np.full(phi.size, np.nan), np.full(phi.size, np.inf)
    if brackets is not None:
        lo, hi, rank = brackets
        below = (-1.0) ** rank  # the sign of p_n just below the zero
    todo = np.arange(phi.size)
    for _ in range(_NEWTON_PASSES if brackets is None else _BRACKET_PASSES):
        if todo.size == 0:
            break
        t, s = phi[todo], side[todo]
        at = s * np.cos(t)
        p, dp = deque(orthonormal_rows(a, b, mu0, at, deriv_rows=len(a)), maxlen=1).pop()  # row n only
        near, far = np.where(s > 0.0, gamma, alpha), np.where(s > 0.0, alpha, gamma)
        amplitude = (near + 0.5) / (2.0 * np.tan(t / 2.0)) - (far + 0.5) * np.tan(t / 2.0) / 2.0
        step = p / (s * np.sin(t) * dp - p * amplitude)
        # judged on the plain step: |p_n / p_n'| small puts x within n times
        # it of a zero, where a small weighted step need not
        done = np.abs(p / (s * np.sin(t) * dp)) <= tol
        t = t + step
        if brackets is not None:
            lo[todo] = np.where(np.sign(p) == below[todo], at, lo[todo])
            hi[todo] = np.where(np.sign(p) == -below[todo], at, hi[todo])
            left, right = lo[todo], hi[todo]
            stray = ~(done | ((left < s * np.cos(t)) & (s * np.cos(t) < right)))
            mid = (left + right) / 2.0
            t = np.where(stray, np.arccos(np.abs(mid)), t)
            s = np.where(stray, np.where(mid < 0.0, -1.0, 1.0), s)
            done |= right - left <= _EPS
        phi[todo], side[todo] = t, s
        x[todo[done]] = (at - p / dp)[done]
        radius[todo[done]] = (len(a) * np.abs(p / dp))[done]
        todo = todo[~done & np.isfinite(p)]
    return x, radius


def _sorted_nodes(x: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip the nodes to [-1, 1] and sort them with their radii; a lost node
    (NaN, radius inf) is parked at 1, where the certificate rejects it."""
    x = np.clip(np.nan_to_num(x, nan=1.0), -1.0, 1.0)
    order = np.argsort(x)
    return x[order], radius[order]


def gauss_nodes(gamma: float, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the weight (1-x)^gamma (1+x)^alpha.

    The nodes are the zeros of the orthonormal p_n, found without an
    eigensolver (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013):
    asymptotic guesses for the angles arccos x, counted from the nearer
    endpoint, then Newton's method in the angle on the rolling recurrence.

    A Sturm count certifies the nodes: the zeros above the separators -1,
    the midpoints between the sorted nodes, and 1 must number n, n-1, ..., 0,
    so that each gap between separators holds one node and one zero, and
    each node's Newton radius must fit inside its gap, so that the zero in
    the gap is the one the node converged to (two nodes sent to one zero
    next to a zero without a node pass the counts alone).  Where this
    fails, the nodes that sit alone with one zero in their gap are kept;
    each zero left without a node gets the gap the counts give it, bisection
    on the counts until no other zero shares it, and the same Newton
    iteration kept inside that bracket.  Then the whole rule is counted again.

    The weights are the Christoffel numbers 1 / sum_i p_i(x_j)^2, i < n,
    which keep the discrete Gram matrix of p_0..p_{n-1} within a few ulp of
    the identity, as the spectral modules rely on.  The recurrence runs row
    by row, so the rule needs O(n) memory.  The squares are added in row
    order 0..n-1, the order in which a sum over the rows of a tabulated
    (n, n) array adds them, so the weights are bitwise those of the
    tabulated form.  Raises ExactnessError when n nodes with positive float64
    weights cannot be certified.
    """
    if n < 1:
        raise DomainError("need at least one quadrature node")
    a, b, mu0 = recurrence_coefficients(gamma, alpha, n)
    # overflow in the recurrence shows as a lost node or a weight of 0 or
    # inf, both checked below, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        x = _certified_nodes(a, b, mu0, gamma, alpha, n)
        squares = np.zeros(n)
        for p, _ in orthonormal_rows(a[:n], b[:n], mu0, x, deriv_rows=0):
            squares += p ** 2
    w = 1.0 / squares
    if not (np.all(w > 0.0) and np.all(np.isfinite(w))):
        raise ExactnessError(
            f"the Gauss rule of {n} nodes for (gamma, alpha) = ({gamma!r}, {alpha!r}) "
            "has weights outside the float64 range"
        )
    return x, w


def _certified_nodes(a, b, mu0, gamma: float, alpha: float, n: int) -> np.ndarray:
    """The sorted zeros of p_n, certified by zero counts (see gauss_nodes)."""
    # the next step after one of size tol is at most (|gamma| + |alpha| + 1) tol^2
    # in x, under 1/128 of an ulp near +-1, so the last step rounds as Newton's limit
    tol = math.sqrt(_EPS / (256.0 * (abs(gamma) + abs(alpha) + 1.0)))
    upper, lower = (n + 1) // 2, n // 2
    phi = np.concatenate((_angle_guesses(gamma, alpha, n, upper), _angle_guesses(alpha, gamma, n, lower)))
    side = np.concatenate((np.ones(upper), -np.ones(lower)))
    x, radius = _sorted_nodes(*_newton(a, b, mu0, (gamma, alpha), phi, side, tol))
    for attempt in range(2):
        separators = np.concatenate(([-1.0], (x[:-1] + x[1:]) / 2.0, [1.0]))
        above = _zeros_above(a, b, separators)
        # a node whose radius fits between its separators, with one zero
        # between them, is within its radius of that zero
        kept = (above[:-1] - above[1:] == 1) & (separators[:-1] < x - radius) & (x + radius < separators[1:])
        if kept.all():
            return x
        if attempt == 1:
            raise ExactnessError(f"no certified Gauss rule of {n} nodes for (gamma, alpha) = ({gamma!r}, {alpha!r})")
        # a zero with rank r has r zeros at or above it; the counts fall with x,
        # so the last separator with r zeros above it opens the gap that holds it
        missing = np.setdiff1d(np.arange(1, n + 1), above[:-1][kept])
        gap = np.searchsorted(-above, -missing, side="right") - 1
        lo, hi = _isolate(a, b, separators[gap], separators[gap + 1], above[gap], above[gap + 1], missing)
        mid = (lo + hi) / 2.0
        side = np.where(mid < 0.0, -1.0, 1.0)
        found, found_radius = _newton(a, b, mu0, (gamma, alpha), np.arccos(np.abs(mid)), side, tol, (lo, hi, missing))
        x, radius = _sorted_nodes(np.concatenate((x[kept], found)), np.concatenate((radius[kept], found_radius)))

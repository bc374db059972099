"""Kernel operators, mapping bounds, and dyadic band decompositions.

An operator is a heat kernel H(x_i, x_j) in its factored form, acting by
quadrature in the first slot: H f = V^T D V (w f), never through the N x N
table.  When |H| is dominated pointwise by a' E for the localization
envelope E at scale delta, the operator inherits the full L^p -> L^q mapping
scale: with 1/p - 1/q = 1 - 1/r and the volume floor constant a_hat,

    ||H f||_q <= a' a_hat^(k (1/r - 1)) 2^(2k+1) delta^(k (1/q - 1/p)) ||f||_p.

A Schur test is provided alongside as the measured counterpart: bounded
weighted L^r norms of rows and columns give ||H f||_q <= C ||f||_p for the
same exponent relation, with C read off the kernel rather than printed.  The
table and the envelope are exactly symmetric, so the domination constant a'
and the Schur norms for r in {1, 2, inf} are taken in one pass over blocks of
the upper triangle (``FactoredKernel.upper_row_blocks``), one block of at
most 1 MiB at a time, when the operator is built.

Band decomposition splits the spectrum dyadically: block 0 holds beta <= 1
and block j holds 2^(2(j-1)) < beta <= 2^(2j).  The block projectors are
spectral multipliers with indicator symbols, so their images are exactly
orthogonal and block energies sum to ||f||^2; sampling each block on a net
weighted by sqrt-cell-masses gives the frame coefficients whose energy is
compared against the block energy.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeParams, envelope
from .errors import ContractError, DomainError, PreconditionError
from .geometry import DoublingProfile, MetricMeasureSpace, lp_norm
from .heat import FactoredKernel
from .jacobi import SpectralBasis, coefficients, synthesize
from .nets import Net, cell_masses, check_net_space
from .reporting import VerificationReport, make_report, open_output


@dataclass(frozen=True)
class KernelOperator:
    """Factored kernel H with its tight domination constant: |H| <= a_prime * E
    at every node pair, for the envelope E of ``params``.  ``schur_norms``
    maps each r of SCHUR_ORDERS to the Schur constant C: the largest weighted
    L^r norm of a row of H (the rows are its columns)."""

    kernel: FactoredKernel
    a_prime: float
    params: EnvelopeParams
    schur_norms: dict[float, float]


SCHUR_ORDERS = (1.0, 2.0, math.inf)
BAND_TOL = 1e-10  # Parseval and reconstruction defects, relative to max(1, size of f)


def _check_kernel_space(space: MetricMeasureSpace, kernel: FactoredKernel) -> None:
    if kernel.rows.shape[1] != space.n:
        raise ContractError("kernel must cover all node pairs of the space")


def _add_row_sums(sums: np.ndarray, w: np.ndarray, rows: slice, block: np.ndarray) -> None:
    """Add an upper-triangle block's weighted sums to ``sums``.  The table is
    exactly symmetric, so its row sums are its column sums: a block adds its
    row sums to its rows, and the column sums of its part right of the
    diagonal to the rows those columns mirror."""
    sums[rows] += block @ w[rows.start :]
    sums[rows.stop :] += w[rows] @ block[:, rows.stop - rows.start :]


def dominated_operator(space: MetricMeasureSpace, kernel: FactoredKernel, params: EnvelopeParams) -> KernelOperator:
    """The kernel with a_prime = max |H| / E over every node pair, and its
    Schur norms for r in SCHUR_ORDERS, from one pass over the blocks of the
    upper triangle.

    Where (1 + d/delta)^-sigma_exp underflows and H does not vanish, a_prime
    is infinite: a PreconditionError, since no mapping bound follows.
    """
    _check_kernel_space(space, kernel)
    nodes = np.arange(space.n)
    w = space.weights
    ratio_maxima = []
    largest = 0.0
    sums = np.zeros(space.n)
    square_sums = np.zeros(space.n)
    for rows, block in kernel.upper_row_blocks():
        np.abs(block, out=block)
        # per-entry arithmetic of the whole-table form, and |H| / E is exactly
        # symmetric, so the max over the upper triangle is bitwise the same
        with np.errstate(divide="ignore", over="ignore"):
            ratio_maxima.append((block / envelope(space, params, nodes[rows, None], nodes[rows.start :])).max())
        largest = max(largest, float(block.max()))
        _add_row_sums(sums, w, rows, block)
        block **= 2.0
        _add_row_sums(square_sums, w, rows, block)
    a_prime = float(np.max(ratio_maxima))
    if math.isinf(a_prime):
        raise PreconditionError(
            f"envelope (1 + d/delta)^-sigma underflows at sigma = {params.sigma_exp:g} where the kernel is nonzero, "
            f"so a' = max |H|/E is infinite; the mapping bound is vacuous"
        )
    schur_norms = {1.0: float(sums.max()), 2.0: float(square_sums.max()) ** 0.5, math.inf: largest}
    return KernelOperator(kernel=kernel, a_prime=a_prime, params=params, schur_norms=schur_norms)


def apply_operator(space: MetricMeasureSpace, op: KernelOperator, f: np.ndarray) -> np.ndarray:
    """(H f)(y) = integral of H(x, y) f(x) dsigma(x), as V^T D V (w f), for
    one function or one per row of f."""
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != space.n:
        raise ContractError("nodal values must align with the space")
    _check_kernel_space(space, op.kernel)
    kernel = op.kernel
    return ((space.weights * f) @ kernel.rows.T * kernel.decay) @ kernel.rows


_LOG2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exponent_inverse(p: float) -> float:
    if p < 1.0:
        raise DomainError("exponents must be at least 1")
    return 0.0 if math.isinf(p) else 1.0 / p


def _worst_ratio(
    space: MetricMeasureSpace, op: KernelOperator, p: float, q: float, trials: np.ndarray
) -> tuple[float, int]:
    """Largest ||H f||_q / ||f||_p over the nonzero trial rows, and the row count."""
    trials = np.atleast_2d(np.asarray(trials, dtype=float))
    worst = 0.0
    for f, image in zip(trials, apply_operator(space, op, trials)):
        denom = lp_norm(space.weights, f, p)
        if denom == 0.0:
            continue
        worst = max(worst, lp_norm(space.weights, image, q) / denom)
    return worst, int(trials.shape[0])


def verify_young(
    space: MetricMeasureSpace,
    op: KernelOperator,
    profile: DoublingProfile,
    p: float,
    q: float,
    trials: np.ndarray,
) -> VerificationReport:
    """Check the mapping bound carried by the operator's domination constant.

    Requires q >= p, an envelope with sigma_exp >= 2k + 1, and a scale
    delta <= 1 (the volume floor only holds below unit radius).  The report
    compares the worst measured ratio ||H f||_q / ||f||_p over the trial
    functions against the closed-form constant.
    """
    k = op.params.k
    delta = op.params.delta
    if op.params.sigma_exp < 2 * k + 1:
        raise PreconditionError("mapping bound needs sigma_exp >= 2k + 1")
    if delta > 1.0:
        raise PreconditionError("mapping bound needs delta <= 1")
    inv_p = _exponent_inverse(p)
    inv_q = _exponent_inverse(q)
    if inv_q > inv_p:
        raise DomainError("mapping bound needs q >= p")
    inv_r = 1.0 - inv_p + inv_q
    a_hat = 2.0 ** (-k) * profile.a_noncollapse
    # For heavy weights k is large and a_hat tiny, so a_hat^(k(1/r - 1)) can
    # overflow; compare the log of each factor and of the product first.
    log_power = k * (inv_r - 1.0) * (math.log(profile.a_noncollapse) - k * _LOG2)
    log_two_power = (2 * k + 1) * _LOG2
    log_a_prime = math.log(op.a_prime) if op.a_prime > 0.0 else -math.inf
    log_a_const = log_a_prime + log_power + log_two_power
    if max(log_power, log_two_power, log_a_const) >= _LOG_FLOAT_MAX:
        raise PreconditionError(
            f"Young constant a' a_hat^(k(1/r - 1)) 2^(2k+1) overflows (log {log_a_const:.6g} at k = {k}); "
            f"the mapping bound is vacuous"
        )
    a_const = op.a_prime * a_hat ** (k * (inv_r - 1.0)) * 2.0 ** (2 * k + 1)
    rhs = a_const * delta ** (k * (inv_q - inv_p))
    worst, n_trials = _worst_ratio(space, op, p, q, trials)
    return make_report(
        "young",
        worst,
        rhs,
        paper_constant=a_const,
        context={
            "p": p,
            "q": q,
            "r": math.inf if inv_r == 0.0 else 1.0 / inv_r,
            "delta": delta,
            "sigma_exp": op.params.sigma_exp,
            "k": k,
            "a_prime": op.a_prime,
            "a_hat": a_hat,
            "kernel_tail": op.kernel.tail,
            "n_trials": n_trials,
        },
    )


def verify_schur(
    space: MetricMeasureSpace,
    op: KernelOperator,
    p: float,
    q: float,
    r: float,
    trials: np.ndarray,
) -> VerificationReport:
    """Schur test: C = max weighted L^r norm over rows and columns bounds
    ||H f||_q / ||f||_p whenever 1/p - 1/q = 1 - 1/r.

    C is the operator's own ``schur_norms[r]``, taken when it was built, so r
    must be one of SCHUR_ORDERS: 1, 2 or inf.
    """
    inv_p = _exponent_inverse(p)
    inv_q = _exponent_inverse(q)
    inv_r = _exponent_inverse(r)
    if abs((inv_p - inv_q) - (1.0 - inv_r)) > 1e-12:
        raise DomainError("exponents must satisfy 1/p - 1/q = 1 - 1/r")
    if r not in SCHUR_ORDERS:
        raise DomainError(f"Schur norms are taken for r in {SCHUR_ORDERS}, not r = {r:g}")
    _check_kernel_space(space, op.kernel)
    C = op.schur_norms[r]
    worst, n_trials = _worst_ratio(space, op, p, q, trials)
    return make_report(
        "schur",
        worst,
        C,
        paper_constant=C,
        context={"p": p, "q": q, "r": r, "kernel_tail": op.kernel.tail, "n_trials": n_trials},
    )


def band_index(beta: float) -> int:
    """Dyadic block of an eigenvalue: 0 for beta <= 1, else the smallest j
    with beta <= 2^(2j)."""
    if beta < 0.0:
        raise DomainError("eigenvalues are nonnegative")
    if beta <= 1.0:
        return 0
    return max(1, math.ceil(math.log2(beta) / 2.0))


@dataclass(frozen=True)
class BandDecomposition:
    """Blockwise spectral pieces of one function sampled on a net."""

    blocks: list[tuple[int, np.ndarray]]
    components: np.ndarray
    block_energies: np.ndarray
    center_indices: np.ndarray
    net_coefficients: np.ndarray
    reconstruction: np.ndarray
    frame_ratio: float
    f_norm_sq: float


def band_decompose(basis: SpectralBasis, net: Net, f: np.ndarray) -> BandDecomposition:
    """Split f into dyadic spectral blocks and sample them on the net.

    Net coefficients are sqrt(sigma(P_center)) * (Q_j f)(center); their
    blockwise energy is compared to ||Q_j f||^2 through the frame ratio
    (worst two-sided energy distortion over blocks carrying energy).
    """
    space = basis.space
    check_net_space(space, net)
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise ContractError("nodal values must align with the space")
    c = coefficients(basis, f)
    block_of = np.array([band_index(b) for b in basis.eigenvalues], dtype=int)
    n_blocks = int(block_of.max()) + 1
    blocks: list[tuple[int, np.ndarray]] = []
    components = np.zeros((n_blocks, space.n))
    for j in range(n_blocks):
        idx = np.nonzero(block_of == j)[0]
        blocks.append((j, idx))
        if idx.size:
            masked = np.zeros_like(c)
            masked[idx] = c[idx]
            components[j] = synthesize(basis, masked)
    energies = (components * components) @ space.weights
    masses = cell_masses(space, net)
    net_coeffs = np.sqrt(masses)[None, :] * components[:, net.centers]
    reconstruction = components.sum(axis=0)
    f_norm_sq = float((f * f) @ space.weights)
    if f_norm_sq <= 0.0:
        raise DomainError("band decomposition needs a nonzero function")
    ratio = 1.0
    for j in range(n_blocks):
        if energies[j] <= 1e-14 * f_norm_sq:
            continue
        net_energy = float((net_coeffs[j] ** 2).sum())
        if net_energy <= 0.0:
            ratio = float("inf")
            continue
        r = net_energy / energies[j]
        ratio = max(ratio, r, 1.0 / r)
    return BandDecomposition(
        blocks=blocks,
        components=components,
        block_energies=np.asarray(energies, dtype=float),
        center_indices=net.centers.copy(),
        net_coefficients=net_coeffs,
        reconstruction=reconstruction,
        frame_ratio=float(ratio),
        f_norm_sq=f_norm_sq,
    )


def verify_band_decomposition(
    basis: SpectralBasis,
    net: Net,
    f: np.ndarray,
) -> tuple[BandDecomposition, list[VerificationReport]]:
    """Parseval and reconstruction checks plus the frame-ratio fit report."""
    space = basis.space
    decomp = band_decompose(basis, net, f)
    context = {
        "n_blocks": len(decomp.blocks),
        "n_centers": net.size,
        "delta": net.delta,
        "frame_ratio": decomp.frame_ratio,
        "n_nodes": space.n,
        "degree": basis.degree,
    }
    f = np.asarray(f, dtype=float)
    parseval = make_report(
        "band.parseval",
        float(abs(decomp.block_energies.sum() - decomp.f_norm_sq)),
        BAND_TOL * max(1.0, decomp.f_norm_sq),
        context=context,
    )
    recon = make_report(
        "band.reconstruction",
        float(np.abs(decomp.reconstruction - f).max()),
        BAND_TOL * max(1.0, float(np.abs(f).max())),
        context=context,
    )
    frame = make_report(
        "frame.ratio",
        0.0 if math.isfinite(decomp.frame_ratio) else 1.0,
        0.0,
        context=context,
    )
    return decomp, [parseval, recon, frame]


def decomposition_to_csv(decomp: BandDecomposition, path: str) -> None:
    """Write net coefficients as rows (j, center_index, coefficient)."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "center_index", "coefficient"])
        n_blocks, m = decomp.net_coefficients.shape
        for j in range(n_blocks):
            for idx in range(m):
                writer.writerow(
                    [
                        str(j),
                        str(int(decomp.center_indices[idx])),
                        repr(float(decomp.net_coefficients[j, idx])),
                    ]
                )

"""Heat kernel of the Jacobi operator and its quantitative behavior.

The kernel is assembled from the eigenexpansion

    h_t(x, y) = sum_i exp(-beta_i t) P_i(x) P_i(y),

truncated at the basis degree; the dropped tail is bounded by exp(-beta_N t)
per term, which must sit below tolerance for the time range in use.  On a
Gauss quadrature space the discrete expansion makes the defining identities
(unit mass, the semigroup law, eigenfunction action) hold to roundoff, so
their verifiers double as integrity checks of the discretization.

Every identity, fit and mapping bound works on the factored view
(``factored_kernel``): the basis rows and decay factors themselves, with the
space whose nodes and weights they live on.  Sampled entries, the diagonal,
blocks of the table's upper triangle and the semigroup defect come from it
without the N x N table, and so does the integral operator
H f(y) = integral of h_t(x, y) f(x) dmu(x): ``FactoredKernel.apply`` is the
one place that forms V^T D V (w f), and the unit-mass (H 1 = 1) and
eigenfunction-action checks, like the mapping bounds, go through it.  Each
sampled entry the fits read is its own sum over the kept rows, reduced by
numpy in row order rather than by a BLAS product, so the fits do not depend
on the BLAS thread count.  The dense table (``heat_kernel``), V^T D V
symmetrised over the factored kernel's kept rows, serves only the
``kernel`` CSV export, which writes all of it.  The table is symmetric
bitwise, so its writer (``kernel_to_csv``) formats each mirrored pair once
and reuses the string only between bitwise-equal entries.

Two-sided Gaussian envelopes and the space Hoelder exponent are *fitted*
rather than asserted: the fit reports the constants

    h_t(x, y) ~ exp(-a d(x,y)^2 / t) / sqrt(sigma B(x, sqrt t) sigma B(y, sqrt t))

from least squares on the log-normalized kernel, with the offsets K and c1'
pinned to the extreme residuals so the two-sided bound holds with equality
at the worst samples.  Pass/fail for fits means finiteness and stability
under refinement, never agreement with a printed constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractError, DomainError, ExactnessError, SamplingError, TruncationWarning
from .geometry import MetricMeasureSpace, ball_volumes_at_nodes
from .jacobi import SpectralBasis
from .reporting import VerificationReport, make_report, open_output

import warnings

TAIL_TOL = 1e-12  # largest admissible spectral tail exp(-beta_N t)
MARKOV_TOL = 1e-8  # largest row-integral defect |int h_t(x, y) dy - 1|
SEMIGROUP_TOL = 1e-7  # largest composition defect, relative to max h_{t+s}
EIGEN_ACTION_TOL = 1e-9  # largest |R_t P_i - exp(-beta_i t) P_i| at a node

# Entries per row block of an N-column table: a few 1 MiB temporaries
# instead of N x N ones.
_BLOCK_ENTRIES = 2**17


def _row_slices(n: int) -> list[slice]:
    """Consecutive row ranges of an n-column table, _BLOCK_ENTRIES entries each."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


@dataclass(frozen=True)
class FactoredKernel:
    """h_t on the nodes of ``space``, kept as its spectral factors:
    h_t(x_i, x_j) = sum_k decay_k rows[k, i] rows[k, j].

    Basis rows past the last nonzero decay factor (exp(-beta_k t) underflows
    to 0) add exact zeros to every sum, so they are dropped.  ``tail`` is
    exp(-beta_N t) at the basis degree N, whether or not its row is kept: the
    per-term bound on the spectral tail the expansion truncates.
    """

    space: MetricMeasureSpace
    rows: np.ndarray
    decay: np.ndarray
    tail: float

    def __post_init__(self) -> None:
        if self.rows.shape[1] != self.space.n:
            raise ContractError("kernel must cover all node pairs of the space")

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(H f)(y) = integral of h_t(x, y) f(x) dmu(x) over the space, as
        V^T D V (w f), for one function or one per row of f."""
        f = np.asarray(f, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != self.space.n:
            raise ContractError("nodal values must align with the space")
        return ((self.space.weights * f) @ self.rows.T * self.decay) @ self.rows

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """h_t(x_i, x_j) for aligned index arrays, each as its own sum
        sum_k decay_k rows[k, i] rows[k, j] over the kept rows.

        The sums are one numpy reduction over k in row order, not a BLAS
        product, so the values do not depend on the BLAS build or its
        thread count.
        """
        return (self.rows[:, i] * self.rows[:, j] * self.decay[:, None]).sum(axis=0)

    def diagonal(self) -> np.ndarray:
        """h_t(x, x) at every node.  The kernel is positive semidefinite, so
        |h_t(x, y)| <= sqrt(h_t(x, x) h_t(y, y)) and the largest |h_t| sits
        here."""
        return self.decay @ (self.rows * self.rows)

    def upper_row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(rows, block) over consecutive row ranges of the N x N table; a
        block holds those rows from column rows.start on, so the blocks tile
        the upper triangle and the diagonal.

        The table is symmetric, so the entries left out are the transposes of
        ones given.  A block is 0.5 (V_b^T D V_c + (D V_b)^T V_c) for the
        columns c: the entries of ``heat_kernel``'s symmetrised table with
        the same products summed in the same order, so they match it bitwise.
        Each block is a fresh array the caller may overwrite.
        """
        scaled = self.decay[:, None] * self.rows
        for rows in _row_slices(self.rows.shape[1]):
            cols = slice(rows.start, None)
            block = self.rows[:, rows].T @ scaled[:, cols]
            block += scaled[:, rows].T @ self.rows[:, cols]
            block *= 0.5
            yield rows, block


def factored_kernel(basis: SpectralBasis, t: float) -> FactoredKernel:
    """The factored view of h_t; warns its caller if the spectral tail
    exp(-beta_N t) is not negligible at this t."""
    if t <= 0.0:
        raise DomainError("time must be positive")
    decay = np.exp(-basis.eigenvalues * t)
    tail = float(decay[-1])
    if tail > TAIL_TOL:
        warnings.warn(
            f"spectral tail exp(-beta_N t) = {tail:.2e} exceeds {TAIL_TOL:.1e} at t = {t}",
            TruncationWarning,
            stacklevel=2,
        )
    keep = int(np.flatnonzero(decay).max(initial=-1)) + 1
    return FactoredKernel(space=basis.space, rows=basis.values[:keep], decay=decay[:keep], tail=tail)


def heat_kernel(basis: SpectralBasis, t: float) -> np.ndarray:
    """The symmetric table of h_t on all node pairs, V^T D V symmetrised
    over the factored kernel's kept rows; warns like ``factored_kernel``."""
    kernel = factored_kernel(basis, t)
    table = kernel.rows.T @ (kernel.decay[:, None] * kernel.rows)
    return 0.5 * (table + table.T)


def verify_markov(basis: SpectralBasis, t: float) -> VerificationReport:
    """Unit mass in each slot: the row integrals of h_t, H 1, must all
    equal 1."""
    space = basis.space
    row_integrals = factored_kernel(basis, t).apply(np.ones(space.n))
    defect = float(np.abs(row_integrals - 1.0).max())
    return make_report(
        "markov",
        defect,
        MARKOV_TOL,
        paper_constant=1.0,
        context={"t": float(t), "n_nodes": space.n, "degree": basis.degree},
    )


def verify_semigroup(
    space: MetricMeasureSpace,
    basis: SpectralBasis,
    t: float,
    s: float,
) -> VerificationReport:
    """Composition law: integrating h_t against h_s reproduces h_{t+s}.

    In the basis the law reads D_t G D_s = D_{t+s}, where D are the decay
    factors and G = (V w) V^T is the Gram matrix of the basis rows under this
    space's weights, so V^T (D_t G D_s - D_{t+s}) V is the nodal table of the
    composition defect, whose largest entry is taken over row blocks.  G is
    formed here from ``space``, so a basis that does not match its space
    fails the check.
    """
    kt = factored_kernel(basis, t)
    ks = factored_kernel(basis, s)
    kts = factored_kernel(basis, t + s)
    gram = (kt.rows * space.weights) @ ks.rows.T
    coeffs = kt.decay[:, None] * gram * ks.decay
    diag = np.arange(kts.decay.size)
    coeffs[diag, diag] -= kts.decay
    right = coeffs @ ks.rows
    largest = max(float(np.abs(kt.rows[:, blk].T @ right).max()) for blk in _row_slices(kt.rows.shape[1]))
    scale = float(kts.diagonal().max())
    defect = largest / max(scale, 1e-300)
    return make_report(
        "semigroup",
        defect,
        SEMIGROUP_TOL,
        context={"t": t, "s": s, "n_nodes": space.n},
    )


def verify_eigen_action(
    basis: SpectralBasis,
    t: float,
    max_index: int,
) -> VerificationReport:
    """R_t P_i = exp(-beta_i t) P_i for each basis row up to max_index.

    The images R_t P_i come from the factored kernel's ``apply``.
    """
    if max_index < 0 or max_index > basis.degree:
        raise DomainError("max_index must lie within the basis degree")
    probes = basis.values[: max_index + 1]
    images = factored_kernel(basis, t).apply(probes)
    expected = np.exp(-basis.eigenvalues[: max_index + 1] * t)[:, None] * probes
    defects = np.abs(images - expected).max(axis=1)
    worst_i = int(np.argmax(defects))
    return make_report(
        "eigen_action",
        float(defects[worst_i]),
        EIGEN_ACTION_TOL,
        context={"t": t, "max_index": max_index, "worst_index": worst_i},
    )


def _split_slope(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Central least-squares slope, then slopes refitted on the residual
    halves; returns (upper_slope, lower_slope)."""
    slope, icept = np.polyfit(u, v, 1)
    resid = v - (icept + slope * u)
    out = []
    for side in (resid >= 0.0, resid < 0.0):
        if side.sum() >= 2 and float(np.ptp(u[side])) > 1e-12:
            out.append(float(np.polyfit(u[side], v[side], 1)[0]))
        else:
            out.append(float(slope))
    return out[0], out[1]


def fit_gaussian_bounds(
    basis: SpectralBasis,
    t_grid: Sequence[float],
    pairs: Sequence[tuple[float, float]],
) -> VerificationReport:
    """Fit two-sided Gaussian envelope constants (K, a) and (c1', c1).

    Pairs are coordinates in [-1, 1]; each is snapped to its nearest node so
    the same sample set is meaningful across resolutions.  Samples whose
    normalized ratio falls below 1e-13 of the largest sampled ratio sit at
    the roundoff floor of the kernel table (the true value underflows the
    noise of the spectral sum); they are excluded from the fit and counted
    in the context instead of poisoning the log regression.  The fit passes
    when all four constants are finite and every resolvable sample is
    strictly positive (the lower bound is vacuous otherwise).
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) == 0 or len(pairs) == 0:
        raise SamplingError("need at least one time and one pair")
    if min(t_grid) <= 0.0:
        raise DomainError("times must be positive")
    worst_tail = math.exp(-float(basis.eigenvalues[-1]) * min(t_grid))
    if worst_tail > TAIL_TOL:
        raise ExactnessError(
            f"spectral tail {worst_tail:.2e} at t = {min(t_grid)} exceeds {TAIL_TOL:.1e}; raise the degree"
        )
    space = basis.space
    idx1, idx2 = space.snap(pairs).T
    dists = space.node_distances(idx1, idx2)

    def cloud_at(t: float) -> tuple[np.ndarray, np.ndarray]:
        kernel = factored_kernel(basis, t)
        vols = ball_volumes_at_nodes(space, math.sqrt(t))
        rho = kernel.entries(idx1, idx2) * np.sqrt(vols[idx1] * vols[idx2])
        u = dists * dists / t
        return u, rho

    clouds = [cloud_at(t) for t in t_grid]
    u_all = np.concatenate([c[0] for c in clouds])
    rho_all = np.concatenate([c[1] for c in clouds])
    rho_max = float(rho_all.max())
    if rho_max <= 0.0:
        raise SamplingError("no sample resolves a positive kernel value")
    resolvable = np.abs(rho_all) > 1e-13 * rho_max
    n_below_floor = int((~resolvable).sum())
    n_nonpositive = int((rho_all[resolvable] <= 0.0).sum())
    keep = resolvable & (rho_all > 0.0)
    u = u_all[keep]
    v = np.log(rho_all[keep])
    if u.size < 3:
        raise SamplingError("too few positive samples to fit")
    upper_slope, lower_slope = _split_slope(u, v)
    a = -upper_slope
    c1 = -lower_slope
    K = float(np.exp(np.max(v + a * u)))
    c1_prime = float(np.exp(np.min(v + c1 * u)))
    constants = {"K": K, "a": a, "c1_prime": c1_prime, "c1": c1}
    bad = sum(0 if math.isfinite(val) else 1 for val in constants.values())
    context = dict(constants)
    context.update(
        {
            "n_samples": int(u_all.size),
            "n_used": int(u.size),
            "n_below_floor": n_below_floor,
            "n_nonpositive": n_nonpositive,
            "n_times": len(t_grid),
            "n_nodes": space.n,
            "degree": basis.degree,
        }
    )
    return make_report("gauss.fit", float(bad + n_nonpositive), 0.0, context=context)


def verify_holder(
    basis: SpectralBasis,
    t_grid: Sequence[float],
    triples: Sequence[tuple[float, float, float]],
    decay_rate: float,
) -> VerificationReport:
    """Fit the space Hoelder exponent of h_t against the Gaussian envelope.

    For admissible samples (d(s2, s2') <= sqrt(t)) the normalized increment

        y = |h_t(s1, s2) - h_t(s1, s2')| sqrt(vol1 vol2) exp(a d(s1,s2)^2/t)

    is regressed on x = d(s2, s2')/sqrt(t) in log-log coordinates; the slope
    is the fitted exponent and must come out positive and finite.  The decay
    rate a is the upper Gaussian rate (``fit_gaussian_bounds``).

    Increments whose magnitude falls below 1e-13 of the kernel's largest
    value (the top of its diagonal) are pure spectral-sum roundoff; they are
    counted under ``n_zero_increments`` and excluded so noise cannot steer
    the regression.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) == 0 or len(triples) == 0:
        raise SamplingError("need at least one time and one triple")
    if min(t_grid) <= 0.0:
        raise DomainError("times must be positive")
    space = basis.space
    idx1, idx2, idx3 = space.snap(triples).T
    d_main = space.node_distances(idx1, idx2)
    d_move = space.node_distances(idx2, idx3)
    xs: list[float] = []
    ys: list[float] = []
    n_zero = 0
    n_admissible = 0
    for t in t_grid:
        sqrt_t = math.sqrt(t)
        admissible = (d_move <= sqrt_t) & (d_move > 0.0)
        if not admissible.any():
            continue
        kernel = factored_kernel(basis, t)
        floor = 1e-13 * float(kernel.diagonal().max())
        vols = ball_volumes_at_nodes(space, sqrt_t)
        ms = np.nonzero(admissible)[0]
        diffs = np.abs(kernel.entries(idx1[ms], idx2[ms]) - kernel.entries(idx1[ms], idx3[ms]))
        for m, diff in zip(ms, diffs):
            n_admissible += 1
            envelope_val = math.exp(-decay_rate * d_main[m] ** 2 / t) / math.sqrt(
                vols[idx1[m]] * vols[idx2[m]]
            )
            if diff <= floor or envelope_val <= 0.0:
                n_zero += 1
                continue
            xs.append(d_move[m] / sqrt_t)
            ys.append(diff / envelope_val)
    if n_admissible == 0:
        raise SamplingError("no triple satisfies d(s2, s2') <= sqrt(t) on the grid")
    if len(xs) < 3:
        raise SamplingError("too few nonzero increments to fit an exponent")
    log_x = np.log(np.array(xs))
    log_y = np.log(np.array(ys))
    gamma_h, icept = np.polyfit(log_x, log_y, 1)
    K_h = float(np.exp(np.max(log_y - gamma_h * log_x)))
    context = {
        "gamma_H": float(gamma_h),
        "K_H": K_h,
        "decay_rate": decay_rate,
        "n_samples": len(xs),
        "n_zero_increments": n_zero,
        "n_nodes": space.n,
        "degree": basis.degree,
    }
    finite = math.isfinite(gamma_h) and math.isfinite(K_h)
    return make_report(
        "holder.fit",
        float(gamma_h) if finite else float("-inf"),
        0.0,
        lower=True,
        context=context,
    )


def kernel_to_csv(table: np.ndarray, path: str) -> None:
    """Write a square table as CRLF rows (x_index, y_index, value), each
    value spelled ``repr(float(v))``.

    h_t is symmetric, and ``heat_kernel``'s table is symmetric to the bit,
    so each entry of the upper triangle and the diagonal is formatted once,
    with the row's ``tolist()`` through one list ``repr``, and its string is
    reused for the mirrored entry.  Reuse needs bitwise-equal entries
    (compared as uint64, so 0.0 and -0.0 differ and equal NaNs match); any
    other entry of the lower triangle is formatted on its own, so the bytes
    are those of formatting every entry.  Strings wait for their mirrored
    row: about N^2/4 of them when row N/2 is written.
    """
    values = np.asarray(table, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DomainError(f"the kernel table must be square, not of shape {values.shape}")
    n = values.shape[0]
    bits = values.view(np.uint64)
    template = "".join(f"%s,{j},%s\r\n" for j in range(n))
    pending: list[list[str] | None] = [[] for _ in range(n)]  # row k's strings for columns < k
    with open_output(path, newline="") as fh:
        fh.write("x_index,y_index,value\r\n")
        for i in range(n):
            upper = repr(values[i, i:].tolist())[1:-1].split(", ")
            row, pending[i] = pending[i], None
            for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
                row[j] = repr(float(values[i, j]))
            for mirrored, text in zip(pending[i + 1 :], upper[1:]):
                mirrored.append(text)
            row += upper
            args = [str(i)] * (2 * n)
            args[1::2] = row
            fh.write(template % tuple(args))

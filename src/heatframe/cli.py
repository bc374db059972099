"""Command line front end: verify, kernel, net, decompose.

`verify` builds a Gauss quadrature space for the requested weight, profiles
its doubling behavior, then runs every quantitative check in a fixed order
with sampling driven by one seeded generator.  The JSON document it writes
is a pure function of the configuration, the numpy build and the BLAS
thread count: identical configs produce byte-identical output under the
same numpy and thread count.  Another thread count moves the roundoff of
the BLAS products, and with it the last digits of some numbers (the band
decomposition's residuals, a'); the Gaussian and Hoelder fits sample kernel
entries summed without BLAS and do not move.  A test holds the check ids and
pass flags of one verdict, and its fit reports, fixed between 1 and 2
threads.  The ``kernel`` CSV has the same contract, since its table is one
matrix product.  Exit codes: 0 when every asserted check passes, 1 when an
asserted inequality fails, 2 for invalid configuration or an inadmissible
run (truncation, sampling).

Fitted quantities (Gaussian envelope constants, Hoelder exponent, the
Poincare constant, frame ratios) are reported with their stability under
doubled resolution but never gate the exit code.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, heat, jacobi, nets, operators
from .envelope import (
    EnvelopeParams,
    verify_envelope_lp,
    verify_envelope_scaling,
    verify_lemma_integrals,
)
from .errors import DomainError, ExactnessError, HeatframeError
from .reporting import VerificationReport, aggregate, compare_stability, gate, open_output, to_json

GAUSS_T_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
EIGEN_T_GRID = (0.1, 0.5)
YOUNG_EXPONENTS = ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, math.inf), (2.0, math.inf))
SCHUR_EXPONENTS = ((2.0, 2.0, 1.0), (1.0, 2.0, 2.0))
LP_EXPONENTS = (1.0, 2.0, 4.0, math.inf)

# argparse before Python 3.13 takes "-1e-05" for an option, not a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    command: str = "verify"
    gamma: float = 0.0
    alpha: float = 0.0
    n_nodes: int = 64
    degree: int = 40
    t: float = 0.5
    delta: float = 0.2
    sigma_exp: float | None = None
    k_override: int | None = None
    seed: int = 0
    out: str | None = None
    basis_index: int | None = None

    def validate(self) -> None:
        params = jacobi.JacobiParams(self.gamma, self.alpha)
        if self.n_nodes < 2:
            raise DomainError("need at least two nodes")
        if self.command != "net" and not (0 <= self.degree <= self.n_nodes - 1):
            raise DomainError("degree must lie in [0, n_nodes - 1]")
        if not (0.0 < self.t < math.inf):
            raise DomainError("t must be finite and positive")
        if not (0.0 < self.delta <= 1.0):
            raise DomainError("delta must lie in (0, 1]")
        if self.sigma_exp is not None and not (0.0 < self.sigma_exp < math.inf):
            raise DomainError("sigma must be finite and positive")
        if self.k_override is not None and self.k_override < 1:
            raise DomainError("k override must be a positive integer")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.command == "verify":
            self._check_spectral_tail(params)

    def _check_spectral_tail(self, params: jacobi.JacobiParams) -> None:
        """Reject up front the degree the Gaussian fit would reject at the end.

        The tail is the expression ``heat.fit_gaussian_bounds`` tests, so a
        degree passes here exactly when it passes there.
        """
        t_min = min(GAUSS_T_GRID)

        def tail(degree: int) -> float:
            return math.exp(-jacobi.eigenvalue(degree, params) * t_min)

        minimum = self.degree
        while tail(minimum) > heat.TAIL_TOL:
            minimum += 1
        if minimum == self.degree:
            return
        limit = "" if minimum <= self.n_nodes - 1 else f", which needs at least {minimum + 1} nodes"
        raise ExactnessError(
            f"spectral tail {tail(self.degree):.2e} at t = {t_min} exceeds {heat.TAIL_TOL:.1e}; "
            f"verify needs degree >= {minimum}{limit}"
        )


def _build(config: RunConfig) -> jacobi.SpectralBasis:
    """The configured basis, built on every call."""
    space = geometry.make_jacobi_space(config.gamma, config.alpha, config.n_nodes)
    return jacobi.build_basis(space, jacobi.JacobiParams(config.gamma, config.alpha), config.degree)


# At most one entry: the last verdict's (space, refinement space, weight,
# degree, bases).
_KEPT: list[tuple] = []


def _verdict_bases(config: RunConfig) -> tuple[jacobi.SpectralBasis, jacobi.SpectralBasis]:
    """The verdict's basis and its refinement on twice the nodes, kept one
    verdict deep.

    The refinement serves the Gaussian and Hoelder fits, which read the rows
    ``heat.factored_kernel`` keeps at the smallest fit time (those whose
    decay exp(-beta_k t) has not underflowed to 0), and the Poincare fit,
    which reads rows 0..jacobi.POINCARE_DEGREE.  Its degree is the last of
    those rows, capped at twice the configured degree and at the rule's
    exactness limit.

    The next verdict on the same two memoised space objects (matched by
    identity), weight and degree gets the same pair, Gram checks included.
    Any other verdict drops the pair before it builds its own, and
    ``make_jacobi_space.cache_clear()`` resets it, since new spaces never
    match.  The arrays are read-only, so no verdict can change what the next
    one reads.
    """
    space = geometry.make_jacobi_space(config.gamma, config.alpha, config.n_nodes)
    fine_space = geometry.make_jacobi_space(config.gamma, config.alpha, 2 * config.n_nodes)
    params = jacobi.JacobiParams(config.gamma, config.alpha)
    for kept_space, kept_fine, kept_params, kept_degree, bases in _KEPT:
        if kept_space is space and kept_fine is fine_space and (kept_params, kept_degree) == (params, config.degree):
            return bases
    _KEPT.clear()
    fine_degree = min(2 * config.degree, fine_space.n - 1)
    live = int(np.count_nonzero(np.exp(-jacobi.eigenvalues(params, fine_degree) * min(GAUSS_T_GRID))))
    fine_degree = min(fine_degree, max(jacobi.POINCARE_DEGREE + 1, live) - 1)
    bases = (
        jacobi.build_basis(space, params, config.degree),
        jacobi.build_basis(fine_space, params, fine_degree),
    )
    for basis in bases:
        basis.values.flags.writeable = False
        basis.eigenvalues.flags.writeable = False
    _KEPT.append((space, fine_space, params, config.degree, bases))
    return bases


def _profile(space: geometry.MetricMeasureSpace, rng: np.random.Generator) -> geometry.DoublingProfile:
    radii = rng.uniform(0.02 * space.diameter, space.diameter / 3.0, size=12)
    return geometry.estimate_doubling(space, np.arange(space.n), radii)


def run_verify(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    basis, basis_fine = _verdict_bases(config)
    space = basis.space
    profile = _profile(space, rng)
    k = config.k_override if config.k_override is not None else profile.k
    sigma_exp = config.sigma_exp if config.sigma_exp is not None else 2.0 * k + 1.0
    params = EnvelopeParams(delta=config.delta, sigma_exp=sigma_exp, k=k)
    reports: list[VerificationReport] = []

    # volume growth on node-centered samples
    growth_s1 = rng.integers(0, space.n, size=60)
    growth_s2 = rng.integers(0, space.n, size=60)
    growth_r = rng.uniform(0.05, space.diameter / 3.0, size=60)
    growth_beta = rng.uniform(1.0, 3.0, size=60)
    reports.extend(
        geometry.verify_ball_growth(
            space, profile, list(zip(growth_s1, growth_s2, growth_r, growth_beta))
        )
    )

    # envelope scaling, L^p norms, and the decay-integral family
    pairs = list(zip(rng.integers(0, space.n, size=50), rng.integers(0, space.n, size=50)))
    for beta in (0.5, 2.0):
        reports.extend(verify_envelope_scaling(space, params, beta, pairs))
    lp_nodes = rng.integers(0, space.n, size=25)
    for p in LP_EXPONENTS:
        reports.extend(verify_envelope_lp(space, params, p, lp_nodes))
    reports.extend(verify_lemma_integrals(space, params, pairs))

    # net, partition, and the center sums
    net = nets.build_maximal_net(space, config.delta)
    star = EnvelopeParams(delta=2.0 * config.delta, sigma_exp=sigma_exp, k=k)
    sum_s = rng.integers(0, space.n, size=50)
    sum_s2 = rng.integers(0, space.n, size=50)
    for s, s2 in zip(sum_s, sum_s2):
        reports.extend(nets.verify_net_sums(space, net, s, star, s2))

    # semigroup identities
    reports.append(heat.verify_markov(basis, config.t))
    semi = rng.uniform(0.05, 1.0, size=(10, 2))
    for t_val, s_val in semi:
        reports.append(heat.verify_semigroup(space, basis, float(t_val), float(s_val)))
    for t_val in EIGEN_T_GRID:
        reports.append(
            heat.verify_eigen_action(basis, t_val, min(10, basis.degree))
        )

    # Gaussian envelope and Hoelder exponent fits with refinement stability
    gauss_pairs = list(zip(space.sample(rng, 150), space.sample(rng, 150)))
    gauss_base = heat.fit_gaussian_bounds(basis, GAUSS_T_GRID, gauss_pairs)
    reports.append(gauss_base)
    holder_triples = space.sample_steps(rng, 40, math.sqrt(min(GAUSS_T_GRID)))
    decay_rate = float(gauss_base.context["a"])
    holder_base = heat.verify_holder(basis, GAUSS_T_GRID, holder_triples, decay_rate=decay_rate)
    reports.append(holder_base)
    gauss_fine = heat.fit_gaussian_bounds(basis_fine, GAUSS_T_GRID, gauss_pairs)
    reports.append(
        compare_stability(
            "gauss.stability", gauss_base.context, gauss_fine.context, ("K", "a", "c1_prime", "c1")
        )
    )
    holder_fine = heat.verify_holder(basis_fine, GAUSS_T_GRID, holder_triples, decay_rate=decay_rate)
    reports.append(
        compare_stability("holder.stability", holder_base.context, holder_fine.context, ("gamma_H",))
    )

    # mapping bounds for the heat kernel at the matched scale t = delta^2
    kernel_op = operators.dominated_operator(heat.factored_kernel(basis, config.delta ** 2), params)
    trials = jacobi.random_polynomials(basis, 20, min(16, basis.degree), rng)
    for p, q in YOUNG_EXPONENTS:
        reports.append(operators.verify_young(kernel_op, profile, p, q, trials))
    schur_trials = jacobi.random_polynomials(basis, 10, min(16, basis.degree), rng)
    for p, q, r in SCHUR_EXPONENTS:
        reports.append(operators.verify_schur(kernel_op, p, q, r, schur_trials))

    # Poincare constant fitted on sampled balls, with its refinement stability
    ball_centers = space.points[rng.integers(0, space.n, size=12)]
    ball_radii = rng.uniform(0.1, min(1.0, space.diameter / 3.0), size=12)
    balls = list(zip(ball_centers, ball_radii))
    weight = jacobi.JacobiParams(config.gamma, config.alpha)
    poincare_rng = np.random.default_rng(config.seed + 1)
    poincare_base = jacobi.verify_poincare(basis, weight, balls, poincare_rng)
    reports.append(poincare_base)
    poincare_fine = jacobi.verify_poincare(basis_fine, weight, balls, np.random.default_rng(config.seed + 1))
    reports.append(
        compare_stability("poincare.stability", poincare_base.context, poincare_fine.context, ("K_fit",))
    )

    # band decomposition with a frame-ratio refinement comparison
    f_band = jacobi.random_polynomials(basis, 1, basis.degree, rng)[0]
    decomp, band_reports = operators.verify_band_decomposition(basis, net, f_band)
    reports.extend(band_reports)
    fine_net = nets.build_maximal_net(space, config.delta / 2.0)
    decomp_fine = operators.band_decompose(basis, fine_net, f_band)
    reports.append(
        compare_stability(
            "frame.stability",
            {"frame_ratio": decomp.frame_ratio},
            {"frame_ratio": decomp_fine.frame_ratio},
            ("frame_ratio",),
            rel_tol=0.5,
        )
    )

    gated = gate(reports)
    document = {
        "command": "verify",
        "config": {
            "gamma": config.gamma,
            "alpha": config.alpha,
            "n_nodes": config.n_nodes,
            "degree": config.degree,
            "t": config.t,
            "delta": config.delta,
            "sigma_exp": sigma_exp,
            "k_override": config.k_override,
            "seed": config.seed,
        },
        "profile": dict(profile.to_dict(), k_used=k),
        "reports": [r.to_dict() for r in reports],
        "summary": aggregate(reports),
        "all_passed": all(r.passed for r in reports),
        "gated_passed": gated,
    }
    text = to_json(document)
    if config.out:
        with open_output(config.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not gated:
        failed = sorted({r.check_id for r in reports if not r.passed})
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def run_kernel(config: RunConfig) -> int:
    basis = _build(config)
    table = heat.heat_kernel(basis, config.t)
    out = config.out or "kernel.csv"
    heat.kernel_to_csv(table, out)
    print(f"wrote {out}")
    return 0


def run_net(config: RunConfig) -> int:
    space = geometry.make_jacobi_space(config.gamma, config.alpha, config.n_nodes)
    net = nets.build_maximal_net(space, config.delta)
    out = config.out or "net.json"
    nets.save_net(net, out)
    print(f"wrote {out} ({net.size} centers)")
    return 0


def run_decompose(config: RunConfig) -> int:
    basis = _build(config)
    net = nets.build_maximal_net(basis.space, config.delta)
    if config.basis_index is not None:
        if not (0 <= config.basis_index <= basis.degree):
            raise DomainError("basis index must lie within the basis degree")
        f = basis.values[config.basis_index]
    else:
        rng = np.random.default_rng(config.seed)
        f = jacobi.random_polynomials(basis, 1, basis.degree, rng)[0]
    decomp = operators.band_decompose(basis, net, f)
    out = config.out or "decomposition.csv"
    operators.decomposition_to_csv(decomp, out)
    print(f"wrote {out} ({len(decomp.blocks)} blocks, {net.size} centers)")
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatframe",
        description="heat kernels, localization envelopes, and doubling estimates on Jacobi quadrature spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "verify": "run the full verification suite and write a JSON report",
        "kernel": "tabulate the heat kernel at time t as CSV",
        "net": "build a maximal net and partition, written as JSON",
        "decompose": "band-decompose a function and write net coefficients as CSV",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--gamma", type=float, default=RunConfig.gamma, help="weight exponent at x = 1")
        p.add_argument("--alpha", type=float, default=RunConfig.alpha, help="weight exponent at x = -1")
        p.add_argument("--nodes", type=int, default=RunConfig.n_nodes, dest="n_nodes", help="quadrature size")
        p.add_argument("--degree", type=int, default=RunConfig.degree, help="spectral basis degree")
        p.add_argument("--t", type=float, default=RunConfig.t, help="heat kernel time")
        p.add_argument("--delta", type=float, default=RunConfig.delta, help="net / envelope scale")
        p.add_argument(
            "--sigma", type=float, default=RunConfig.sigma_exp, dest="sigma_exp",
            help="envelope decay exponent (default 2k+1)",
        )
        p.add_argument("--k-override", type=int, default=RunConfig.k_override, help="force the doubling exponent k")
        p.add_argument("--seed", type=int, default=RunConfig.seed, help="sampling seed")
        p.add_argument("--out", type=str, default=RunConfig.out, help="output path")
        if name == "decompose":
            p.add_argument(
                "--basis-index", type=int, default=RunConfig.basis_index,
                help="decompose basis row i instead of a random draw",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    runners = {
        "verify": run_verify,
        "kernel": run_kernel,
        "net": run_net,
        "decompose": run_decompose,
    }
    try:
        config.validate()
        return runners[config.command](config)
    except HeatframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

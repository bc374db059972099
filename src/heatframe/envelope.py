"""Localization envelope and its closed-form estimate constants.

The envelope at scale delta with decay exponent sigma_exp is

    E(s1, s2) = (sigma(B(s1, delta)) sigma(B(s2, delta)))^(-1/2)
                * (1 + d(s1, s2)/delta)^(-sigma_exp),

at nodes s1, s2 of the space, the standard majorant for kernels localized at
scale delta on a space with doubling exponent k.  The companion constants,
all explicit in (k, sigma_exp), are

    a1      = (2^-k - 2^-sigma_exp)^-1                    (sigma_exp > k)
    a2      = 2^(sigma_exp+k+1) / (2^-k - 2^(k-sigma_exp)) (sigma_exp > 2k)
    a_p(p)  = (2^(kp/2) / (2^-k - 2^(-(sigma_exp-k/2)p)))^(1/p)
                                        (sigma_exp > k(1/2 + 1/p))

controlling the decay integral, envelope self-reproduction, and the L^p
norms of envelope slices.  The verifiers below check each printed inequality
on node samples, given as node indices, and report margins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._parallel import ordered_map
from .errors import DomainError, PreconditionError, SamplingError
from .geometry import MetricMeasureSpace, ball_volumes_at_nodes, lp_norm
from .reporting import VerificationReport, make_report


@dataclass(frozen=True)
class EnvelopeParams:
    """Scale, decay exponent, the integer doubling exponent, and their constants."""

    delta: float
    sigma_exp: float
    k: int

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < math.inf):
            raise DomainError("delta must be finite and positive")
        if not (0.0 < self.sigma_exp < math.inf):
            raise DomainError("sigma_exp must be finite and positive")
        if int(self.k) != self.k or self.k < 1:
            raise DomainError("k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    @property
    def a1(self) -> float:
        """Decay-integral constant; needs sigma_exp > k."""
        if self.sigma_exp <= self.k:
            raise DomainError("a1 needs sigma_exp > k")
        # a1 >= 2^k is past the float range from k = 1024 (sooner for sigma_exp near k)
        gap = 2.0 ** (-self.k) - 2.0 ** (-self.sigma_exp)
        if gap == 0.0 or math.isinf(1.0 / gap):
            raise PreconditionError(
                f"constant a1 overflows (at least 2^{self.k} is past the float range); the bound is vacuous"
            )
        return 1.0 / gap

    @property
    def a2(self) -> float:
        """Self-reproduction constant; needs sigma_exp > 2k."""
        if self.sigma_exp <= 2 * self.k:
            raise DomainError("a2 needs sigma_exp > 2k")
        return constant_power(2.0, self.sigma_exp + self.k + 1, "a2") / (
            2.0 ** (-self.k) - 2.0 ** (self.k - self.sigma_exp)
        )

    def a_p(self, p: float) -> float:
        """L^p-norm constant; needs sigma_exp > k (1/2 + 1/p).

        Nonincreasing in p with limit 2^(k/2) as p grows; p = inf returns
        the limit directly.
        """
        if p < 1.0:
            raise DomainError("p must be at least 1")
        if math.isinf(p):
            if self.sigma_exp <= self.k / 2.0:
                raise DomainError("a_p(inf) needs sigma_exp > k/2")
            return 2.0 ** (self.k / 2.0)
        if self.sigma_exp <= self.k * (0.5 + 1.0 / p):
            raise DomainError("a_p needs sigma_exp > k (1/2 + 1/p)")
        return (
            constant_power(2.0, self.k * p / 2.0, "a_p")
            / (2.0 ** (-self.k) - 2.0 ** (-(self.sigma_exp - self.k / 2.0) * p))
        ) ** (1.0 / p)


def constant_power(base: float, exponent: float, name: str) -> float:
    """base ** exponent in the printed constant ``name``; past the float
    range the bound it scales is vacuous, a PreconditionError."""
    try:
        return base ** exponent
    except OverflowError:
        raise PreconditionError(
            f"constant {name} overflows ({base:g}^{exponent:g} is past the float range); the bound is vacuous"
        ) from None


def envelope(space: MetricMeasureSpace, params: EnvelopeParams, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """E(x_i, x_j) over node indices broadcast against each other."""
    vols = ball_volumes_at_nodes(space, params.delta)
    d = space.node_distances(i, j)
    return (vols[i] * vols[j]) ** -0.5 * (1.0 + d / params.delta) ** -params.sigma_exp


def verify_envelope_lp(
    space: MetricMeasureSpace,
    params: EnvelopeParams,
    p: float,
    sample_nodes: Sequence[int],
) -> list[VerificationReport]:
    """Check ||E(x_i, .)||_p <= a_p(p) sigma(B(x_i, delta))^(1/p - 1) on sampled nodes."""
    if len(sample_nodes) == 0:
        raise SamplingError("need at least one sample point")
    const = params.a_p(p)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    vols = ball_volumes_at_nodes(space, params.delta)
    nodes = np.arange(space.n)
    reports = []
    for i in sample_nodes:
        norm = lp_norm(space.weights, envelope(space, params, i, nodes), p)
        rhs = const * vols[i] ** (inv_p - 1.0)
        reports.append(
            make_report(
                "envelope.lp_norm",
                norm,
                rhs,
                paper_constant=const,
                context={
                    "s1": space.points[i],
                    "p": p,
                    "delta": params.delta,
                    "sigma_exp": params.sigma_exp,
                    "k": params.k,
                },
            )
        )
    return reports


def verify_envelope_scaling(
    space: MetricMeasureSpace,
    params: EnvelopeParams,
    beta: float,
    pairs: Sequence[tuple[int, int]],
) -> list[VerificationReport]:
    """Compare envelopes across scale changes delta -> beta delta.

    For beta < 1 the printed bound is E_{beta delta} <= (2/beta)^k E_delta;
    for beta >= 1 it is E_{beta delta} <= beta^sigma_exp E_delta.  Each pair
    also receives the one-volume comparison
    E <= 2^(k/2) sigma(B(s1, delta))^-1 (1 + d/delta)^(sigma_exp - k/2),
    with the exponent written exactly as stated so a failure would surface
    here rather than be papered over.
    """
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    if len(pairs) == 0:
        raise SamplingError("need at least one pair")
    scaled = EnvelopeParams(delta=beta * params.delta, sigma_exp=params.sigma_exp, k=params.k)
    k = params.k
    i1, i2 = np.array(pairs).T
    base = envelope(space, params, i1, i2)
    moved = envelope(space, scaled, i1, i2)
    d = space.node_distances(i1, i2)
    vol1 = ball_volumes_at_nodes(space, params.delta)[i1]
    one_vol_const = constant_power(2.0, k / 2.0, "2^(k/2)")
    # past the float range the rhs is inf, still a true bound on the finite lhs
    with np.errstate(over="ignore"):
        one_vol_rhs = one_vol_const / vol1 * (1.0 + d / params.delta) ** (params.sigma_exp - k / 2.0)
    if beta < 1.0:
        const = constant_power(2.0 / beta, k, "(2/beta)^k")
        check_id = "envelope.shrink"
    else:
        const = constant_power(beta, params.sigma_exp, "beta^sigma_exp")
        check_id = "envelope.grow"
    x = space.points
    reports = []
    for m in range(i1.size):
        context = {"s1": x[i1[m]], "s2": x[i2[m]], "beta": beta, "delta": params.delta, "k": k}
        reports.append(make_report(check_id, moved[m], const * base[m], paper_constant=const, context=context))
        reports.append(
            make_report(
                "envelope.one_volume",
                base[m],
                one_vol_rhs[m],
                paper_constant=one_vol_const,
                context=context,
            )
        )
    return reports


def verify_lemma_integrals(
    space: MetricMeasureSpace,
    params: EnvelopeParams,
    pairs: Sequence[tuple[int, int]],
) -> list[VerificationReport]:
    """Check the decay-integral family against its printed constants.

    Per pair of node indices (s1, s2), in order of strengthening hypotheses:

    * decay integral (sigma_exp > k):
        int (1 + d(s1, v)/delta)^-sigma_exp  <= a1 sigma(B(s1, delta));
    * pairwise product, three successive majorants (sigma_exp > k):
        int prod_i (1 + d(s_i, v)/delta)^-sigma_exp
          <= 2^sigma_exp a1 (sigma B1 + sigma B2) (1 + d12/delta)^-sigma_exp
          <= 2^sigma_exp (2^k + 1) a1 sigma(B1) (1 + d12/delta)^-(sigma_exp-k)
          <= 2^sigma_exp (2^k + 1) a1 sigma(B1);
    * volume-weighted product and envelope self-reproduction (sigma_exp > 2k):
        int sigma(B(v, delta))^-1 prod_i (...)^-sigma_exp
          <= a2 (1 + d12/delta)^-sigma_exp,
        int E(s1, v) E(v, s2) dsigma(v)  <= a2 E(s1, s2).

    Parts whose exponent hypothesis fails for the supplied params are
    skipped; everything that is emitted was checked under its own
    hypothesis.
    """
    if len(pairs) == 0:
        raise SamplingError("need at least one pair")
    delta = params.delta
    s_exp = params.sigma_exp
    k = params.k
    with_a1 = s_exp > k
    with_a2 = s_exp > 2 * k
    w = space.weights
    vols = ball_volumes_at_nodes(space, delta)
    nodes = np.arange(space.n)

    def one_pair(pair: tuple[int, int]) -> list[VerificationReport]:
        s1, s2 = pair
        out: list[VerificationReport] = []
        decay1 = (1.0 + space.node_distances(s1, nodes) / delta) ** -s_exp
        decay2 = (1.0 + space.node_distances(s2, nodes) / delta) ** -s_exp
        vol1 = vols[s1]
        vol2 = vols[s2]
        d12 = space.node_distances(s1, s2)
        far = (1.0 + d12 / delta) ** -s_exp
        context = {"s1": space.points[s1], "s2": space.points[s2], "delta": delta, "sigma_exp": s_exp, "k": k}
        if with_a1:
            a1 = params.a1
            out.append(
                make_report(
                    "lemma.decay_integral",
                    float(w @ decay1),
                    a1 * vol1,
                    paper_constant=a1,
                    context=context,
                )
            )
            product_integral = float(w @ (decay1 * decay2))
            out.append(
                make_report(
                    "lemma.product_pair_volume",
                    product_integral,
                    2.0 ** s_exp * a1 * (vol1 + vol2) * far,
                    paper_constant=2.0 ** s_exp * a1,
                    context=context,
                )
            )
            one_vol_const = 2.0 ** s_exp * (2.0 ** k + 1.0) * a1
            out.append(
                make_report(
                    "lemma.product_one_volume",
                    product_integral,
                    one_vol_const * vol1 * (1.0 + d12 / delta) ** -(s_exp - k),
                    paper_constant=one_vol_const,
                    context=context,
                )
            )
            out.append(
                make_report(
                    "lemma.product_flat",
                    product_integral,
                    one_vol_const * vol1,
                    paper_constant=one_vol_const,
                    context=context,
                )
            )
        if with_a2:
            a2 = params.a2
            weighted = float(w @ (decay1 * decay2 / vols))
            out.append(
                make_report(
                    "lemma.weighted_product",
                    weighted,
                    a2 * far,
                    paper_constant=a2,
                    context=context,
                )
            )
            out.append(
                make_report(
                    "envelope.self_reproduction",
                    float(w @ (envelope(space, params, s1, nodes) * envelope(space, params, s2, nodes))),
                    a2 * envelope(space, params, s1, s2),
                    paper_constant=a2,
                    context=context,
                )
            )
        return out

    reports: list[VerificationReport] = []
    for chunk in ordered_map(one_pair, list(pairs)):
        reports.extend(chunk)
    return reports

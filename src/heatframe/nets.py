"""Maximal delta-nets, companion partitions, and the localized sum bounds.

A delta-net is a subset of the space points that is delta-separated and
maximal (every point lies within delta of some center).  The companion
partition assigns every point to exactly one center so that

    B(center, delta/2)  subset  P_center  subset  B(center, delta).

Given the partition, five sums over the centers are bounded by explicit
constants in the doubling exponent k: cell masses against polynomial decay,
plain decay at the centers, volume-ratio weighted decay at a coarser scale
delta_star >= delta, and two product sums that reproduce the localization
envelope.  These are the discrete counterparts of the decay-integral bounds
and carry one extra doubling factor each for the cell-to-center transfer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeParams, envelope
from .errors import ContractError, DomainError
from .geometry import MetricMeasureSpace, ball_volumes_at_nodes
from .reporting import VerificationReport, make_report

_SEP_TOL = 1e-12


@dataclass(frozen=True)
class Net:
    """Net centers (node indices) and, once built, the cell assignment."""

    delta: float
    centers: np.ndarray
    assignment: np.ndarray | None = None

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=int)
        object.__setattr__(self, "centers", centers)
        if self.delta <= 0.0:
            raise DomainError("delta must be positive")
        if centers.ndim != 1 or centers.size == 0:
            raise DomainError("need at least one center")
        if len(set(centers.tolist())) != centers.size:
            raise DomainError("centers must be distinct")
        if self.assignment is not None:
            assignment = np.asarray(self.assignment, dtype=int)
            object.__setattr__(self, "assignment", assignment)

    @property
    def size(self) -> int:
        return int(self.centers.size)


def build_maximal_net(space: MetricMeasureSpace, delta: float) -> Net:
    """Greedy sweep in stored point order; admits a point iff it is at least
    delta from every admitted center.  The result is delta-separated and
    maximal, hence covers the space within radius strictly below delta.

    theta is monotone along the stored order, so the last admitted center
    is the nearest one, and rounding keeps it so: one comparison per point.
    """
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    theta = space._theta.tolist()
    centers = [0]
    for idx in range(1, space.n):
        if abs(theta[idx] - theta[centers[-1]]) >= delta:
            centers.append(idx)
    return Net(delta=delta, centers=np.array(centers, dtype=int))


def _check_net(space: MetricMeasureSpace, net: Net) -> np.ndarray:
    """Validate separation and covering; return the point-to-center distances."""
    centers = net.centers
    if centers.min(initial=0) < 0 or centers.max(initial=0) >= space.n:
        raise ContractError("net centers must index points of the space")
    D = space.node_distances(np.arange(space.n)[:, None], centers)
    center_gaps = D[centers]
    m = centers.size
    off = center_gaps + np.eye(m) * (net.delta + 1.0)
    if off.min() < net.delta - _SEP_TOL:
        raise ContractError("centers are not delta-separated")
    if D.min(axis=1).max() >= net.delta:
        raise ContractError("net is not maximal: a point is uncovered at radius delta")
    return D


def build_partition(space: MetricMeasureSpace, net: Net) -> Net:
    """Assign every point to one center by the inductive carving rule.

    Sweeping centers in order, cell j collects the still-unassigned points
    of B(center_j, delta) that lie in no other center's delta/2 ball.  Under
    maximality this assigns every point: a point in some half-ball is taken
    by that center's turn, and a point in no half-ball is taken by the first
    center within delta of it.  The sandwich property follows.
    """
    D = _check_net(space, net)
    m = net.size
    in_half = D < net.delta / 2.0
    owners = in_half.sum(axis=1)
    if owners.max(initial=0) > 1:
        raise ContractError("half-balls overlap; separation is violated")
    half_owner = np.where(owners == 1, np.argmax(in_half, axis=1), -1)
    assignment = np.full(space.n, -1, dtype=int)
    for j in range(m):
        eligible = (
            (assignment == -1)
            & (D[:, j] < net.delta)
            & ((half_owner == -1) | (half_owner == j))
        )
        assignment[eligible] = j
    if (assignment == -1).any():
        raise ContractError("carving left a point unassigned; net is not maximal")
    return Net(delta=net.delta, centers=net.centers.copy(), assignment=assignment)


def cell_masses(space: MetricMeasureSpace, net: Net) -> np.ndarray:
    """sigma(P_center) for every center, in center order."""
    if net.assignment is None:
        raise ContractError("net has no partition; call build_partition first")
    return np.bincount(net.assignment, weights=space.weights, minlength=net.size)


def verify_net_sums(
    space: MetricMeasureSpace,
    net: Net,
    s: int,
    delta_star: float,
    sigma_exp: float,
    k: int,
    s2: int | None = None,
) -> list[VerificationReport]:
    """Check the five center sums against their printed constants.

    The probe points s and s2 are node indices.  With delta the net scale,
    d_i the distance from the probe point to center i, and |P_i| the cell
    masses:

    * cell decay:      sum |P_i| (1 + d_i/delta)^-(k+1)
                         <= 2^(2k+2) sigma(B(s, delta));
    * center decay:    sum (1 + d_i/delta)^-(2k+1)  <= 2^(3k+2);
    * volume ratio:    sum |P_i| / sigma(B(c_i, delta_star))
                         * (1 + d_i/delta_star)^-(2k+1)  <= 2^(3k+2);
    * envelope product (sigma_exp >= 2k+1):
        sum |P_i| E*(s, c_i) E*(s2, c_i) <= 2^(sigma_exp+3k+3) E*(s, s2),
        with E* the envelope at scale delta_star;
    * decay product (sigma_exp >= 2k+1):
        sum prod_{p in {s, s2}} (1 + d(p, c_i)/delta)^-sigma_exp
          <= 2^(sigma_exp+2k+3) (1 + d(s, s2)/delta)^-sigma_exp.

    The two product sums are skipped when sigma_exp < 2k+1, their stated
    range.  s2 defaults to s.
    """
    if net.assignment is None:
        raise ContractError("net has no partition; call build_partition first")
    if delta_star < net.delta - _SEP_TOL:
        raise DomainError("delta_star must be at least the net scale")
    if k < 1:
        raise DomainError("k must be a positive integer")
    if s2 is None:
        s2 = s
    delta = net.delta
    masses = cell_masses(space, net)
    d_s = space.node_distances(s, net.centers)
    d_s2 = space.node_distances(s2, net.centers)
    d_pair = space.node_distances(s, s2)
    context = {
        "s": space.points[s],
        "s2": space.points[s2],
        "delta": delta,
        "delta_star": delta_star,
        "sigma_exp": sigma_exp,
        "k": k,
        "n_centers": net.size,
    }
    reports = []
    cell_const = 2.0 ** (2 * k + 2)
    reports.append(
        make_report(
            "net.sum.cell_decay",
            float(masses @ (1.0 + d_s / delta) ** -(k + 1.0)),
            cell_const * ball_volumes_at_nodes(space, delta)[s],
            paper_constant=cell_const,
            context=context,
        )
    )
    center_const = 2.0 ** (3 * k + 2)
    reports.append(
        make_report(
            "net.sum.center_decay",
            float(np.sum((1.0 + d_s / delta) ** -(2.0 * k + 1.0))),
            center_const,
            paper_constant=center_const,
            context=context,
        )
    )
    center_vols = ball_volumes_at_nodes(space, delta_star)[net.centers]
    reports.append(
        make_report(
            "net.sum.cell_volume_ratio",
            float((masses / center_vols) @ (1.0 + d_s / delta_star) ** -(2.0 * k + 1.0)),
            center_const,
            paper_constant=center_const,
            context=context,
        )
    )
    if sigma_exp >= 2 * k + 1:
        star = EnvelopeParams(delta=delta_star, sigma_exp=sigma_exp, k=k)
        prof_s = envelope(space, star, s, net.centers)
        prof_s2 = envelope(space, star, s2, net.centers)
        env_const = 2.0 ** (sigma_exp + 3 * k + 3)
        reports.append(
            make_report(
                "net.sum.envelope_product",
                float(masses @ (prof_s * prof_s2)),
                env_const * envelope(space, star, s, s2),
                paper_constant=env_const,
                context=context,
            )
        )
        decay_const = 2.0 ** (sigma_exp + 2 * k + 3)
        reports.append(
            make_report(
                "net.sum.decay_product",
                float(np.sum((1.0 + d_s / delta) ** -sigma_exp * (1.0 + d_s2 / delta) ** -sigma_exp)),
                decay_const * (1.0 + d_pair / delta) ** -sigma_exp,
                paper_constant=decay_const,
                context=context,
            )
        )
    return reports


def net_to_json(net: Net) -> dict:
    return {
        "delta": float(net.delta),
        "centers": [int(c) for c in net.centers],
        "assignment": None if net.assignment is None else [int(a) for a in net.assignment],
    }


def net_from_json(doc: dict) -> Net:
    assignment = doc.get("assignment")
    return Net(
        delta=float(doc["delta"]),
        centers=np.array(doc["centers"], dtype=int),
        assignment=None if assignment is None else np.array(assignment, dtype=int),
    )


def save_net(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_json(net), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_net(path: str) -> Net:
    with open(path, encoding="utf-8") as fh:
        return net_from_json(json.load(fh))

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
import math
from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeParams, constant_power, envelope
from .errors import ContractError, DomainError
from .geometry import MetricMeasureSpace, ball_volumes_at_nodes
from .reporting import VerificationReport, make_report, open_output, to_json

_SEP_TOL = 1e-12


@dataclass(frozen=True)
class Net:
    """Net centers (node indices) and, per point, the position of its cell's center."""

    delta: float
    centers: np.ndarray
    assignment: np.ndarray

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=int)
        assignment = np.asarray(self.assignment, dtype=int)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "assignment", assignment)
        if not (0.0 < self.delta < math.inf):
            raise DomainError("delta must be finite and positive")
        if centers.ndim != 1 or centers.size == 0:
            raise DomainError("need at least one center")
        if len(set(centers.tolist())) != centers.size or centers.min() < 0:
            raise DomainError("centers must be distinct node indices")
        if assignment.ndim != 1 or assignment.min(initial=0) < 0 or assignment.max(initial=0) >= centers.size:
            raise DomainError("assignment must index the centers")

    @property
    def size(self) -> int:
        return int(self.centers.size)


def build_maximal_net(space: MetricMeasureSpace, delta: float) -> Net:
    """Greedy in stored point order; admits a point iff it is at least
    delta from every admitted center.  The result is delta-separated and
    maximal, hence covers the space within radius strictly below delta.
    It comes with its partition (``build_partition``).

    Each point keeps its distance to the nearest admitted center, so the
    next center is the first later point at least delta from all of them:
    O(N m) distances for m centers.
    """
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    nodes = np.arange(space.n)
    nearest = np.full(space.n, np.inf)
    centers = [0]
    while True:
        nearest = np.minimum(nearest, space.node_distances(centers[-1], nodes))
        later = np.flatnonzero(nearest[centers[-1] + 1 :] >= delta)
        if later.size == 0:
            break
        centers.append(centers[-1] + 1 + int(later[0]))
    return build_partition(space, delta, np.array(centers, dtype=int))


def _check_net(space: MetricMeasureSpace, delta: float, centers: np.ndarray) -> np.ndarray:
    """Validate separation and covering; return the point-to-center distances."""
    if centers.min(initial=0) < 0 or centers.max(initial=0) >= space.n:
        raise ContractError("net centers must index points of the space")
    D = space.node_distances(np.arange(space.n)[:, None], centers)
    center_gaps = D[centers]
    m = centers.size
    off = center_gaps + np.eye(m) * (delta + 1.0)
    if off.min() < delta - _SEP_TOL:
        raise ContractError("centers are not delta-separated")
    if D.min(axis=1).max() >= delta:
        raise ContractError("net is not maximal: a point is uncovered at radius delta")
    return D


def build_partition(space: MetricMeasureSpace, delta: float, centers: np.ndarray) -> Net:
    """Assign every point to one of the centers by the inductive carving rule.

    Sweeping centers in order, cell j collects the still-unassigned points
    of B(center_j, delta) that lie in no other center's delta/2 ball.  Under
    maximality this assigns every point: a point in some half-ball is taken
    by that center's turn, and a point in no half-ball is taken by the first
    center within delta of it.  The sandwich property follows.
    """
    centers = np.asarray(centers, dtype=int)
    D = _check_net(space, delta, centers)
    in_half = D < delta / 2.0
    owners = in_half.sum(axis=1)
    if owners.max(initial=0) > 1:
        raise ContractError("half-balls overlap; separation is violated")
    half_owner = np.where(owners == 1, np.argmax(in_half, axis=1), -1)
    assignment = np.full(space.n, -1, dtype=int)
    for j in range(centers.size):
        eligible = (
            (assignment == -1)
            & (D[:, j] < delta)
            & ((half_owner == -1) | (half_owner == j))
        )
        assignment[eligible] = j
    if (assignment == -1).any():
        raise ContractError("carving left a point unassigned; net is not maximal")
    return Net(delta=delta, centers=centers, assignment=assignment)


def check_net_space(space: MetricMeasureSpace, net: Net) -> None:
    """ContractError unless the net is one of this space: one assignment
    entry per point, and every center a point of the space."""
    if net.assignment.size != space.n:
        raise ContractError(f"the net assigns {net.assignment.size} points, but the space has {space.n}")
    if net.centers.max() >= space.n:
        raise ContractError("net centers do not index this space")


def cell_masses(space: MetricMeasureSpace, net: Net) -> np.ndarray:
    """sigma(P_center) for every center, in center order."""
    check_net_space(space, net)
    return np.bincount(net.assignment, weights=space.weights, minlength=net.size)


def verify_net_sums(
    space: MetricMeasureSpace,
    net: Net,
    s: int,
    params: EnvelopeParams,
    s2: int,
) -> list[VerificationReport]:
    """Check the five center sums against their printed constants.

    ``params`` holds the coarser scale delta_star >= delta, sigma_exp and k.
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
    range.
    """
    delta_star, sigma_exp, k = params.delta, params.sigma_exp, params.k
    if delta_star < net.delta - _SEP_TOL:
        raise DomainError("delta_star must be at least the net scale")
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
    cell_const = constant_power(2.0, 2 * k + 2, "2^(2k+2)")
    reports.append(
        make_report(
            "net.sum.cell_decay",
            float(masses @ (1.0 + d_s / delta) ** -(k + 1.0)),
            cell_const * ball_volumes_at_nodes(space, delta)[s],
            paper_constant=cell_const,
            context=context,
        )
    )
    center_const = constant_power(2.0, 3 * k + 2, "2^(3k+2)")
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
        prof_s = envelope(space, params, s, net.centers)
        prof_s2 = envelope(space, params, s2, net.centers)
        env_const = constant_power(2.0, sigma_exp + 3 * k + 3, "2^(sigma_exp+3k+3)")
        reports.append(
            make_report(
                "net.sum.envelope_product",
                float(masses @ (prof_s * prof_s2)),
                env_const * envelope(space, params, s, s2),
                paper_constant=env_const,
                context=context,
            )
        )
        decay_const = constant_power(2.0, sigma_exp + 2 * k + 3, "2^(sigma_exp+2k+3)")
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


def save_net(net: Net, path: str) -> None:
    doc = {
        "delta": float(net.delta),
        "centers": [int(c) for c in net.centers],
        "assignment": [int(a) for a in net.assignment],
    }
    with open_output(path) as fh:
        fh.write(to_json(doc))


def load_net(path: str) -> Net:
    """Read a net that ``save_net`` wrote.  The file comes from outside the
    program, so one that holds no such net raises DomainError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"net file {path} is not JSON ({exc})") from None
    doc = doc if isinstance(doc, dict) else {}
    for key in ("delta", "centers", "assignment"):
        if doc.get(key) is None:
            raise DomainError(f"net file {path} has no {key}")
    if type(doc["delta"]) not in (int, float):  # bool is an int, but no delta
        raise DomainError(f"net file {path} has a non-numeric delta")
    try:
        return Net(delta=float(doc["delta"]), centers=doc["centers"], assignment=doc["assignment"])
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise DomainError(f"net file {path}: {exc}") from None

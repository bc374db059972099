"""Discretized metric measure spaces on an interval.

A space is a finite quadrature rule (points, positive weights) on [-1, 1]
with the intrinsic arccos metric d(x, y) = |arccos x - arccos y|, under which
Jacobi-type weights are doubling up to the endpoints.  The points are
stored in ascending order, as the Gauss rule returns them, so theta =
arccos x is monotone along the stored order.

Balls are open: B(c, r) = {x : d(c, x) < r}, and sigma(B) is the sum of the
quadrature weights inside.  Every open ball is a contiguous run of the
nodes: ``ball_volume`` sums that run's weights directly, in O(N log N) for
all node balls at once, and ``ball_members`` lists it.  On top of ball
volumes the module estimates a doubling exponent and checks the three
quantitative growth bounds used by every later estimate: scaled growth

    sigma(B(s, beta r)) <= (2 beta)^k sigma(B(s, r)),   beta >= 1,

center-shifted comparison

    sigma(B(s1, r)) <= 2^k (1 + d(s1, s2)/r)^k sigma(B(s2, r)),

and the volume floor sigma(B(s, r)) >= 2^(-k) a r^k for 0 < r <= 1, where a
is the smallest unit-ball mass seen on the sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._recurrence import gauss_nodes
from .errors import ContractError, DomainError, SamplingError
from .reporting import VerificationReport, make_report

# ball_volumes_at_nodes vectors kept per space; the golden and benchmark
# verdicts ask for at most 8 radii of one space
BALL_VOLUME_MEMO = 16


@dataclass(frozen=True)
class MetricMeasureSpace:
    """Ascending points in [-1, 1] with positive weights and the arccos metric."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        points = _read_only(np.asarray(self.points, dtype=float))
        weights = _read_only(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or points.size == 0:
            raise DomainError("points must be a nonempty 1-d array")
        if weights.shape != points.shape:
            raise ContractError("weights must align with points")
        if not np.all(weights > 0.0):
            raise DomainError("weights must be strictly positive")
        if not np.all(np.diff(points) >= 0.0):
            raise DomainError("points must be in ascending order")
        if not (points[0] >= -1.0 and points[-1] <= 1.0):
            raise DomainError("points must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def _theta(self) -> np.ndarray:
        """arccos of the points: nonincreasing along the stored order."""
        return _read_only(np.arccos(self.points))

    @cached_property
    def _sorted_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """theta ascending (the stored order reversed) and its weights,
        padded with (inf, 0)."""
        return _read_only(np.append(self._theta[::-1], np.inf)), _read_only(np.append(self.weights[::-1], 0.0))

    @cached_property
    def _node_ball_volumes(self) -> dict[float, np.ndarray]:
        """Read-only ball_volumes_at_nodes vectors, by radius, in insertion
        order: at most BALL_VOLUME_MEMO of them."""
        return {}

    @cached_property
    def diameter(self) -> float:
        return float(self._theta[0] - self._theta[-1])

    def node_distances(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """d(x_i, x_j) for node indices broadcast against each other."""
        return np.abs(self._theta[i] - self._theta[j])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n coordinates drawn uniformly in theta over the nodes' range."""
        return np.cos(rng.uniform(float(self._theta[-1]), float(self._theta[0]), size=n))

    def sample_steps(self, rng: np.random.Generator, n: int, scale: float) -> list[tuple[float, float, float]]:
        """n coordinate triples (s1, s2, s2'): s1 and s2 drawn as ``sample``
        draws them, and s2' a step of at most ``scale`` in theta from s2,
        kept inside the nodes' range."""
        lo, hi = float(self._theta[-1]), float(self._theta[0])
        triples = []
        for _ in range(n):
            th1, th2 = rng.uniform(lo, hi, size=2)
            step = rng.uniform(0.05, 1.0) * scale * rng.choice((-1.0, 1.0))
            th2p = min(max(th2 + step, lo), hi)
            triples.append((math.cos(th1), math.cos(th2), math.cos(th2p)))
        return triples

    def snap(self, coords: Sequence) -> np.ndarray:
        """Index of the node nearest each coordinate, in the coordinates'
        shape; a tie goes to the lower index.

        The points ascend, so the nearest node is one of the two that bracket
        the coordinate.
        """
        x = self.points
        c = np.asarray(coords, dtype=float)
        hi = np.minimum(np.searchsorted(x, c), self.n - 1)
        lo = np.maximum(hi - 1, 0)
        return np.where(np.abs(x[lo] - c) <= np.abs(x[hi] - c), lo, hi)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view: writes through it raise, the caller's array stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


@lru_cache(maxsize=32)
def make_jacobi_space(gamma: float, alpha: float, n_nodes: int) -> MetricMeasureSpace:
    """Gauss quadrature space for the weight (1-x)^gamma (1+x)^alpha.

    The rule integrates polynomials up to degree 2 n_nodes - 1 exactly, so
    the discrete measure reproduces every moment a basis of degree
    n_nodes - 1 can probe.

    Spaces are memoised per process, 32 at a time (a verdict uses two), so a
    caller that repeats (gamma, alpha, n_nodes) builds the rule once and
    shares the space's own memos (theta, the sorted runs, the ball volumes
    per radius).  The space's arrays are read-only, so no caller can change
    what the next one reads.  Equal arguments share one entry: (-0.0, 0, n)
    and (0.0, 0.0, n) build the same rule bitwise.
    """
    if n_nodes < 2:
        raise DomainError("need at least two quadrature nodes")
    x, w = gauss_nodes(gamma, alpha, n_nodes)
    return MetricMeasureSpace(points=x, weights=w)


def ball_volume(space: MetricMeasureSpace, nodes: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sigma(B(x_i, r)) over node indices and radii broadcast against each other.

    An open ball of positive radius holds its own center, so it has positive
    mass; radius 0 gives the empty ball.
    """
    nodes, radii = np.broadcast_arrays(np.asarray(nodes), np.asarray(radii, dtype=float))
    if np.any(radii < 0.0):
        raise DomainError("radius must be nonnegative")
    volumes = _run_volumes(space, space._theta[nodes.ravel()], radii.ravel())
    return volumes.reshape(radii.shape)


def ball_volumes_at_nodes(space: MetricMeasureSpace, r: float) -> np.ndarray:
    """``ball_volume`` at every node for one radius.

    The vector is memoised on the space per radius and returned read-only:
    a verdict asks for the same few radii many times.  A space keeps the
    BALL_VOLUME_MEMO radii stored last and drops the oldest first, so a
    process that sweeps delta over one memoised space holds a bounded memo.
    """
    r = float(r)
    memo = space._node_ball_volumes
    volumes = memo.get(r)
    if volumes is None:
        volumes = _read_only(ball_volume(space, np.arange(space.n), r))
        if len(memo) >= BALL_VOLUME_MEMO:
            del memo[next(iter(memo))]
        memo[r] = volumes
    return volumes


def ball_members(space: MetricMeasureSpace, center: float, r: float) -> np.ndarray:
    """Indices of the nodes in B(center, r), in stored order.

    ``center`` is a coordinate in [-1, 1], not necessarily a node.
    """
    if not -1.0 <= center <= 1.0:
        raise DomainError("ball centers must lie in [-1, 1]")
    lo, hi = _runs(space, np.array([math.acos(center)]), np.array([float(r)]))
    # the sorted nodes are the stored ones reversed
    return np.arange(space.n - hi[0], space.n - lo[0])


def _runs(space: MetricMeasureSpace, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each open ball B(c_i, r_i) as the run [lo_i, hi_i) of the sorted nodes.

    ``centers`` are theta coordinates, ``radii`` are nonnegative and of the
    same length.  An open ball is a contiguous run of the sorted nodes, since
    rounding keeps |s - c| monotone on each side of c.  searchsorted places
    the run's ends to within a rounding; the open-ball predicate |s - c| < r,
    evaluated as ``node_distances`` evaluates it, then settles each end
    exactly.
    """
    coords, _ = space._sorted_nodes

    def inside(k: np.ndarray) -> np.ndarray:
        return np.abs(coords[k] - centers) < radii

    # lo: first node not left of the ball; hi: first node right of it.  The
    # pad, reached as index n and as index -1, is never inside.
    lo = np.searchsorted(coords, centers - radii)
    hi = np.searchsorted(coords, centers + radii)
    while True:
        down = inside(lo - 1)
        up = ~inside(lo) & (coords[lo] < centers)
        if not (down.any() or up.any()):
            break
        lo = lo - down + up
    while True:
        down = (hi > lo) & ~inside(hi - 1)
        up = inside(hi)
        if not (down.any() or up.any()):
            break
        hi = hi - down + up
    return lo, hi


def _run_volumes(space: MetricMeasureSpace, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sigma(B(c_i, r_i)) from the runs of ``_runs``.

    Each run is summed directly: a prefix-sum difference would lose a ball
    whose mass sits far below the mass to its left.
    """
    _, weights = space._sorted_nodes
    lo, hi = _runs(space, centers, radii)
    # reduceat also sums each gap between consecutive runs; in order of lo
    # those gaps add up to at most n nodes
    order = np.argsort(lo, kind="stable")  # timsort is linear on monotone runs
    lo, hi = lo[order], hi[order]
    sums = np.add.reduceat(weights, np.stack([lo, hi], axis=1).ravel())[0::2]
    volumes = np.empty(lo.size)
    volumes[order] = np.where(hi > lo, sums, 0.0)
    return volumes


def lp_norm(weights: np.ndarray, f: np.ndarray, p: float) -> float:
    """Weighted L^p norm; p = inf is the sup over nodes."""
    if p < 1.0:
        raise DomainError("p must be at least 1")
    f = np.abs(np.asarray(f, dtype=float))
    if math.isinf(p):
        return float(f.max())
    return float((weights @ f ** p) ** (1.0 / p))


@dataclass(frozen=True)
class DoublingProfile:
    """Empirical doubling data: exponents and the unit-ball mass floor.

    k_hat bounds sigma(B(s, 2r))/sigma(B(s, r)) <= 2^k_hat over the sample,
    alpha_hat is the matching reverse exponent on radii <= diameter/3,
    a_noncollapse is the smallest sampled unit-ball mass, and a_caret is the
    derived floor constant 2^(-k_hat) a_noncollapse.
    """

    k_hat: float
    alpha_hat: float
    a_noncollapse: float
    a_caret: float

    def __post_init__(self) -> None:
        if not (self.k_hat >= self.alpha_hat >= 0.0):
            raise DomainError("exponents must satisfy k_hat >= alpha_hat >= 0")
        if self.a_noncollapse <= 0.0:
            raise DomainError("unit-ball mass floor must be positive")

    @property
    def k(self) -> int:
        """k_hat rounded up to the next integer, at least 1."""
        return max(1, math.ceil(self.k_hat - 1e-9))

    def to_dict(self) -> dict[str, float | int]:
        return {
            "k_hat": float(self.k_hat),
            "alpha_hat": float(self.alpha_hat),
            "a_noncollapse": float(self.a_noncollapse),
            "a_caret": float(self.a_caret),
            "k": self.k,
        }


def estimate_doubling(
    space: MetricMeasureSpace,
    centers: Sequence[int],
    radii: Sequence[float],
) -> DoublingProfile:
    """Measure doubling ratios sigma(B(x_i, 2r))/sigma(B(x_i, r)) over a sample.

    ``centers`` are node indices, so every inner ball holds its center's
    mass.  The reverse exponent alpha_hat is read off the radii not exceeding
    diameter/3 (ratios there are bounded away from 1 on a connected space);
    if no sampled radius qualifies it degrades to the trivial value 0.
    """
    centers = np.asarray(centers)
    radii = np.asarray(radii, dtype=float)
    if centers.size == 0 or radii.size == 0:
        raise SamplingError("need at least one center and one radius")
    if np.any(radii <= 0.0):
        raise DomainError("radii must be positive")
    grid = centers[:, None]
    vol_r = ball_volume(space, grid, radii)
    # B(x, r) lies in B(x, 2r): a ratio below 1 is the two runs' different
    # summation orders, not the measure
    ratios = np.maximum(ball_volume(space, grid, 2.0 * radii), vol_r) / vol_r
    reverse_ratios = ratios[:, radii <= space.diameter / 3.0]
    k_hat = math.log2(float(ratios.max()))
    alpha_hat = math.log2(float(reverse_ratios.min())) if reverse_ratios.size else 0.0
    a_noncollapse = float(ball_volume(space, centers, 1.0).min())
    return DoublingProfile(
        k_hat=k_hat,
        alpha_hat=alpha_hat,
        a_noncollapse=a_noncollapse,
        a_caret=2.0 ** (-k_hat) * a_noncollapse,
    )


def verify_ball_growth(
    space: MetricMeasureSpace,
    profile: DoublingProfile,
    samples: Iterable[tuple[int, int, float, float]],
) -> list[VerificationReport]:
    """Check the three growth bounds on (i1, i2, r, beta) samples, i1 and i2
    node indices.

    Uses k = profile.k (the integer roundup) in every constant.  The volume
    floor is only asserted for r <= 1, its stated range.
    """
    samples = list(samples)
    if not samples:
        raise SamplingError("need at least one growth sample")
    i1, i2, r, beta = (np.array(column) for column in zip(*samples))
    if np.any(r <= 0.0):
        raise DomainError("growth samples need positive radii")
    if np.any(beta < 1.0):
        raise DomainError("growth samples need beta >= 1")
    vol_r, vol_beta, vol_other = ball_volume(space, np.stack([i1, i1, i2]), np.stack([r, beta * r, r]))
    d12 = space.node_distances(i1, i2)
    k = profile.k
    a_floor = 2.0 ** (-k) * profile.a_noncollapse
    x = space.points
    reports: list[VerificationReport] = []
    for m in range(r.size):
        s1, s2 = x[i1[m]], x[i2[m]]
        scaled_const = (2.0 * beta[m]) ** k
        reports.append(
            make_report(
                "growth.scaled",
                vol_beta[m],
                scaled_const * vol_r[m],
                paper_constant=scaled_const,
                context={"s1": s1, "r": r[m], "beta": beta[m], "k": k},
            )
        )
        shift_const = 2.0 ** k * (1.0 + d12[m] / r[m]) ** k
        reports.append(
            make_report(
                "growth.shifted",
                vol_r[m],
                shift_const * vol_other[m],
                paper_constant=shift_const,
                context={"s1": s1, "s2": s2, "r": r[m], "k": k},
            )
        )
        if r[m] <= 1.0:
            reports.append(
                make_report(
                    "growth.floor",
                    vol_r[m],
                    a_floor * r[m] ** k,
                    lower=True,
                    paper_constant=a_floor,
                    context={"s1": s1, "r": r[m], "k": k},
                )
            )
    return reports

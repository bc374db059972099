"""Space construction and validation, ball counting, doubling estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_metric import dense_volumes, distance_table
from heatframe import (
    DomainError,
    MetricMeasureSpace,
    ball_volume,
    ball_volumes_at_nodes,
    estimate_doubling,
    make_jacobi_space,
    verify_ball_growth,
)
from heatframe.geometry import ball_members


def _three_point_space(weights=(1.0, 2.0, 4.0)):
    """x = -1, 0, 1 (theta = pi, pi/2, 0) with hand-picked masses."""
    return MetricMeasureSpace(points=np.array([-1.0, 0.0, 1.0]), weights=np.array(weights, dtype=float))


def test_flat_weight_total_mass_is_two(legendre_space):
    assert legendre_space.total_mass == pytest.approx(2.0, abs=1e-13)


def test_chebyshev_total_mass_is_pi():
    space = make_jacobi_space(-0.5, -0.5, 32)
    assert space.total_mass == pytest.approx(math.pi, abs=1e-12)


def test_arc_metric_closed_forms():
    space = MetricMeasureSpace(
        points=np.array([-1.0, 0.3, math.cos(math.pi / 4), 1.0]),
        weights=np.ones(4),
    )
    assert space.node_distances(3, 0) == pytest.approx(math.pi, abs=1e-14)
    assert space.node_distances(1, 1) == 0.0
    assert space.node_distances(3, 2) == pytest.approx(math.pi / 4, abs=1e-14)
    assert space.diameter == pytest.approx(math.pi, abs=1e-14)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=st.floats(-1.0, 1.0),
    y=st.floats(-1.0, 1.0),
    z=st.floats(-1.0, 1.0),
)
def test_arc_metric_triangle_inequality(x, y, z):
    space = MetricMeasureSpace(points=np.sort([x, y, z]), weights=np.array([1.0, 1.0, 1.0]))
    d = space.node_distances
    for i, j, k in ((0, 2, 1), (0, 1, 2), (1, 2, 0)):
        assert d(i, j) <= d(i, k) + d(k, j) + 1e-12
    assert d(0, 1) == d(1, 0)


def test_space_validation_rejects_bad_input():
    with pytest.raises(DomainError):
        MetricMeasureSpace(np.array([0.0, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):  # the Gauss rule returns ascending points
        MetricMeasureSpace(np.array([0.5, 0.0]), np.ones(2))
    with pytest.raises(DomainError):
        MetricMeasureSpace(np.array([0.0, 1.5]), np.ones(2))
    with pytest.raises(DomainError):
        MetricMeasureSpace(np.array([-1.5, 0.0]), np.ones(2))
    with pytest.raises(DomainError):
        MetricMeasureSpace(np.array([0.0, np.nan]), np.ones(2))
    MetricMeasureSpace(np.array([-1.0, 0.0, 0.0, 1.0]), np.ones(4))  # ties are ascending


def test_ball_volume_hand_counts():
    space = _three_point_space()  # neighbours sit pi/2 apart
    assert ball_volume(space, 0, 2.0) == pytest.approx(3.0)  # masses 1 + 2
    assert ball_volume(space, 0, 0.0) == 0.0
    assert ball_volume(space, 1, 5.0) == pytest.approx(7.0)  # everything
    assert ball_volume(space, 2, 1.0) == pytest.approx(4.0)  # open ball: itself
    # index and radius arrays broadcast against each other
    grid = ball_volume(space, np.array([[0], [2]]), np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(grid, [[0.0, 1.0, 3.0], [0.0, 4.0, 6.0]])


def test_ball_members_at_coordinate_centers():
    space = _three_point_space()
    assert ball_members(space, -1.0, 2.0).tolist() == [0, 1]
    assert ball_members(space, 0.0, 2.0).tolist() == [0, 1, 2]
    assert ball_members(space, 1.0, 1.0).tolist() == [2]
    assert ball_members(space, 0.5, 0.1).tolist() == []  # between the nodes
    with pytest.raises(DomainError):
        ball_members(space, 1.5, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-0.9, 6.0),
    alpha=st.floats(-0.9, 6.0),
    n=st.integers(2, 96),
    center=st.floats(-1.0, 1.0),
    scale=st.floats(0.0, 1.0),
)
def test_ball_members_match_the_dense_mask_in_stored_order(gamma, alpha, n, center, scale):
    space = make_jacobi_space(gamma, alpha, n)
    gaps = np.abs(np.arccos(space.points) - math.acos(center))
    gap = float(gaps[int(scale * (n - 1))])  # an exact open-ball boundary
    for r in (gap, np.nextafter(gap, np.inf), scale * space.diameter):
        assert ball_members(space, center, r).tolist() == np.flatnonzero(gaps < r).tolist()


def test_ball_volumes_at_nodes_matches_pointwise(legendre_space):
    r = 0.4
    vols = ball_volumes_at_nodes(legendre_space, r)
    expected = [ball_volume(legendre_space, i, r) for i in range(legendre_space.n)]
    assert vols == pytest.approx(expected, rel=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-0.9, 6.0),
    alpha=st.floats(-0.9, 6.0),
    n=st.integers(2, 96),
    pick=st.tuples(st.integers(0, 95), st.integers(0, 95)),
    scale=st.floats(0.0, 1.0),
)
def test_sorted_runs_match_custom_table_oracle(gamma, alpha, n, pick, scale):
    """The oracle is the dense open-ball mask over the test's own N x N table."""
    space = make_jacobi_space(gamma, alpha, n)
    table = distance_table(space)
    i, j = pick[0] % n, pick[1] % n
    gap = float(table[i, j])  # an exact open-ball boundary
    radii = [r for r in (gap, np.nextafter(gap, np.inf), scale * space.diameter) if r > 0.0]
    counts = MetricMeasureSpace(space.points, np.ones(n))
    for r in radii:
        np.testing.assert_allclose(
            ball_volumes_at_nodes(space, r), (table < r) @ space.weights, rtol=1e-13, atol=0.0
        )
        assert np.array_equal(ball_volumes_at_nodes(counts, r), (table < r).sum(axis=1))
    # one batched call over a (node x radius) grid, the empty ball included
    nodes = np.arange(n)[:, None]
    grid = np.array([*radii, 0.0])
    masks = table[:, None, :] < grid[None, :, None]
    np.testing.assert_allclose(ball_volume(space, nodes, grid), masks @ space.weights, rtol=1e-13, atol=0.0)
    assert np.array_equal(ball_volume(counts, nodes, grid), masks.sum(axis=2))
    assert not ball_volume(space, nodes, 0.0).any()


def test_sorted_runs_keep_tiny_balls_of_a_heavy_weight():
    # Next to x = -1 a ball holds about 1e-51 of the mass; a prefix-sum
    # difference there keeps nothing of it.
    space = make_jacobi_space(5.0, 20.0, 512)
    vols = ball_volumes_at_nodes(space, 0.05)
    dense = dense_volumes(space, 0.05)
    assert vols.min() < 1e-45 * space.total_mass
    np.testing.assert_allclose(vols, dense, rtol=1e-13, atol=0.0)


def _doubling_by_loop(space, centers, radii):
    """estimate_doubling as a per-center loop over rows of the distance table."""
    reverse_cut = space.diameter / 3.0
    ratios, reverse_ratios, unit_masses = [], [], []
    table = distance_table(space)
    for c in centers:
        d = table[c]
        unit_masses.append(float(space.weights[d < 1.0].sum()))
        for r in radii:
            ratio = float(space.weights[d < 2.0 * r].sum()) / float(space.weights[d < r].sum())
            ratios.append(ratio)
            if r <= reverse_cut:
                reverse_ratios.append(ratio)
    return math.log2(max(ratios)), math.log2(min(reverse_ratios)), min(unit_masses)


@pytest.mark.parametrize("gamma, alpha", [(0.0, 0.0), (3.0, -0.5)])
def test_estimate_doubling_matches_per_center_loop(gamma, alpha):
    space = make_jacobi_space(gamma, alpha, 200)
    rng = np.random.default_rng(5)
    radii = rng.uniform(0.02 * space.diameter, space.diameter / 3.0, size=12)
    centers = list(range(space.n)) + list(rng.integers(0, space.n, size=20))
    profile = estimate_doubling(space, centers, radii)
    k_hat, alpha_hat, a_noncollapse = _doubling_by_loop(space, centers, radii)
    assert profile.k_hat == pytest.approx(k_hat, rel=1e-13)
    assert profile.alpha_hat == pytest.approx(alpha_hat, rel=1e-13)
    assert profile.a_noncollapse == pytest.approx(a_noncollapse, rel=1e-13)


def test_estimate_doubling_resolves_tiny_node_balls():
    # an open ball of positive radius holds its own node's positive weight
    space = make_jacobi_space(0.0, 0.0, 16)
    profile = estimate_doubling(space, [0, 7], [1e-4])
    assert profile.k_hat == profile.alpha_hat == 0.0
    assert profile.a_noncollapse > 0.0


def test_diameter_equals_table_maximum_bitwise():
    rng = np.random.default_rng(8)
    points = np.sort(rng.uniform(-1.0, 1.0, size=257))
    for pts in (points, np.array([-1.0, *points, 1.0])):
        space = MetricMeasureSpace(pts, np.ones(pts.size))
        assert space.diameter == float(distance_table(space).max())
    jacobi = make_jacobi_space(3.0, -0.5, 300)
    assert jacobi.diameter == float(distance_table(jacobi).max())


def test_node_distances_equal_table_entries(legendre_space):
    i = np.arange(legendre_space.n)
    j = i[::-1]
    assert np.array_equal(legendre_space.node_distances(i, j), distance_table(legendre_space)[i, j])


def test_uniform_line_has_dimension_one():
    # Equal masses at evenly spaced theta: volume grows linearly in r.
    n, h = 200, 0.01
    theta = np.pi / 2 + (np.arange(n) - n / 2) * h
    space = MetricMeasureSpace(np.cos(theta)[::-1], np.full(n, h))
    rng = np.random.default_rng(0)
    centers = np.arange(n // 3, 2 * n // 3)
    radii = rng.uniform(5 * h, 20 * h, size=10)
    profile = estimate_doubling(space, centers, radii)
    assert 0.9 <= profile.k_hat <= 1.35
    assert profile.k_hat >= profile.alpha_hat >= 0.0
    assert profile.a_caret == 2.0 ** (-profile.k_hat) * profile.a_noncollapse


def test_doubling_ratios_never_fall_below_one():
    # B(x, r) lies in B(x, 2r), but the two runs are summed in different
    # orders: on the radii `verify` draws at (80, 80), some ratios come out
    # 1 - 2^-53
    space = make_jacobi_space(80.0, 80.0, 256)
    radii = np.random.default_rng(0).uniform(0.02 * space.diameter, space.diameter / 3.0, size=12)
    centers = np.arange(space.n)
    raw = ball_volume(space, centers[:, None], 2.0 * radii) / ball_volume(space, centers[:, None], radii)
    assert raw.min() < 1.0
    profile = estimate_doubling(space, centers, radii)
    assert profile.alpha_hat == 0.0
    assert profile.k_hat == math.log2(float(raw.max()))


def test_doubling_profile_on_standard_space(legendre_space):
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.05, legendre_space.diameter / 3.0, size=12)
    profile = estimate_doubling(legendre_space, np.arange(legendre_space.n), radii)
    assert profile.k_hat >= profile.alpha_hat >= 0.0
    assert profile.a_noncollapse > 0.0
    assert profile.k >= 1 and isinstance(profile.k, int)
    d = profile.to_dict()
    assert set(d) == {"k_hat", "alpha_hat", "a_noncollapse", "a_caret", "k"}


def test_ball_growth_reports_pass(legendre_space):
    rng = np.random.default_rng(11)
    radii = rng.uniform(0.05, legendre_space.diameter / 3.0, size=12)
    profile = estimate_doubling(legendre_space, np.arange(legendre_space.n), radii)
    samples = [
        (
            int(rng.integers(0, legendre_space.n)),
            int(rng.integers(0, legendre_space.n)),
            float(rng.uniform(0.05, legendre_space.diameter / 3.0)),
            float(rng.uniform(1.0, 3.0)),
        )
        for _ in range(60)
    ]
    reports = verify_ball_growth(legendre_space, profile, samples)
    assert reports and all(r.passed for r in reports)
    assert {r.check_id for r in reports} == {
        "growth.scaled",
        "growth.shifted",
        "growth.floor",
    }



def test_space_arrays_are_read_only():
    space = make_jacobi_space(1.5, -0.5, 64)
    for array in (space.points, space.weights, space._theta, *space._sorted_nodes):
        with pytest.raises(ValueError):
            array[0] = 0.5
        with pytest.raises(ValueError):
            array *= 2.0


def test_a_space_leaves_the_callers_arrays_writable():
    points, weights = np.array([-1.0, 0.0, 1.0]), np.ones(3)
    MetricMeasureSpace(points, weights)
    points[0] = -0.5
    weights *= 2.0


def test_the_memo_returns_one_space_per_rule():
    assert make_jacobi_space(3.0, -0.5, 48) is make_jacobi_space(3.0, -0.5, 48)
    assert make_jacobi_space(3.0, -0.5, 48) is not make_jacobi_space(3.0, -0.5, 49)


def test_arguments_equal_as_keys_build_the_same_rule_bitwise():
    # The memo gives (-0.0, 0.0, 64), (0, 0, 64) and (0.0, 0.0, 64) one
    # entry, so whichever is built first must be the rule of all three.
    rules = []
    for args in ((0.0, 0.0, 64), (-0.0, 0.0, 64), (0, 0, 64), (0.0, -0.0, 64)):
        make_jacobi_space.cache_clear()
        space = make_jacobi_space(*args)
        rules.append(b"".join(a.tobytes() for a in (space.points, space.weights, space._theta)))
    assert rules[1:] == rules[:1] * 3

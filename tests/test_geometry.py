"""Space construction, metric validation, ball counting, doubling estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatframe import (
    METRIC_ARCCOS,
    METRIC_EUCLIDEAN,
    METRIC_TABLE,
    DomainError,
    MetricMeasureSpace,
    ball_volume,
    ball_volumes_at_nodes,
    estimate_doubling,
    make_jacobi_space,
    verify_ball_growth,
)


def _table_space(weights=(1.0, 2.0, 4.0)):
    """Three points on a line with unit spacing and hand-picked masses."""
    table = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return MetricMeasureSpace(
        points=np.array([0.0, 1.0, 2.0]),
        weights=np.array(weights, dtype=float),
        metric_kind=METRIC_TABLE,
        dist_table=table,
    )


def test_flat_weight_total_mass_is_two(legendre_space):
    assert legendre_space.total_mass == pytest.approx(2.0, abs=1e-13)


def test_chebyshev_total_mass_is_pi():
    space = make_jacobi_space(-0.5, -0.5, 32)
    assert space.total_mass == pytest.approx(math.pi, abs=1e-12)


def test_arc_metric_closed_forms():
    space = MetricMeasureSpace(
        points=np.array([1.0, -1.0, 0.3, math.cos(math.pi / 4)]),
        weights=np.ones(4),
        metric_kind=METRIC_ARCCOS,
    )
    assert space.node_distances(0, 1) == pytest.approx(math.pi, abs=1e-14)
    assert space.node_distances(2, 2) == 0.0
    assert space.node_distances(0, 3) == pytest.approx(math.pi / 4, abs=1e-14)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=st.floats(-1.0, 1.0),
    y=st.floats(-1.0, 1.0),
    z=st.floats(-1.0, 1.0),
)
def test_arc_metric_triangle_inequality(x, y, z):
    space = MetricMeasureSpace(
        points=np.array([x, y, z]),
        weights=np.array([1.0, 1.0, 1.0]),
        metric_kind=METRIC_ARCCOS,
    )
    d = space.node_distances
    assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-12
    assert d(0, 1) == d(1, 0)


def test_table_space_validation_rejects_bad_input():
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    points = np.array([0.0, 1.0])
    with pytest.raises(DomainError):
        MetricMeasureSpace(points, np.array([1.0, -1.0]), METRIC_TABLE, table)
    with pytest.raises(DomainError):
        MetricMeasureSpace(
            points, np.array([1.0, 1.0]), METRIC_TABLE, np.array([[0.0, 1.0], [2.0, 0.0]])
        )
    with pytest.raises(DomainError):
        MetricMeasureSpace(
            points, np.array([1.0, 1.0]), METRIC_TABLE, np.array([[0.5, 1.0], [1.0, 0.0]])
        )
    bad_triangle = np.array(
        [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]
    )
    with pytest.raises(DomainError):
        MetricMeasureSpace(
            np.array([0.0, 1.0, 2.0]), np.ones(3), METRIC_TABLE, bad_triangle
        )


def test_ball_volume_hand_counts():
    space = _table_space()  # node i sits at coordinate i
    assert ball_volume(space, 0, 1.5) == pytest.approx(3.0)  # masses 1 + 2
    assert ball_volume(space, 0, 0.0) == 0.0
    assert ball_volume(space, 1, 5.0) == pytest.approx(7.0)  # everything
    assert ball_volume(space, 2, 1.0) == pytest.approx(4.0)  # open ball: itself
    # index and radius arrays broadcast against each other
    grid = ball_volume(space, np.array([[0], [2]]), np.array([0.0, 1.0, 1.5]))
    assert np.array_equal(grid, [[0.0, 1.0, 3.0], [0.0, 4.0, 6.0]])
    with pytest.raises(DomainError):  # a table measures distances between nodes only
        space.distances_from(0.5)


def test_ball_volumes_at_nodes_matches_pointwise(legendre_space):
    r = 0.4
    vols = ball_volumes_at_nodes(legendre_space, r)
    expected = [ball_volume(legendre_space, i, r) for i in range(legendre_space.n)]
    assert vols == pytest.approx(expected, rel=1e-15)


def _dense_volumes(space, r):
    """The N x N reference: sigma(B(x_i, r)) = (D < r) @ w."""
    return (space.distance_matrix < r) @ space.weights


def _as_table(space):
    return MetricMeasureSpace(space.points, space.weights, METRIC_TABLE, space.distance_matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gamma=st.floats(-0.9, 6.0),
    alpha=st.floats(-0.9, 6.0),
    n=st.integers(2, 96),
    pick=st.tuples(st.integers(0, 95), st.integers(0, 95)),
    scale=st.floats(0.0, 1.0),
)
def test_sorted_runs_match_custom_table_oracle(gamma, alpha, n, pick, scale):
    space = make_jacobi_space(gamma, alpha, n)
    i, j = pick[0] % n, pick[1] % n
    gap = float(space.distance_matrix[i, j])  # an exact open-ball boundary
    radii = [r for r in (gap, np.nextafter(gap, np.inf), scale * space.diameter) if r > 0.0]
    table = _as_table(space)
    counts = MetricMeasureSpace(space.points, np.ones(n), METRIC_ARCCOS)
    count_table = _as_table(counts)
    for r in radii:
        np.testing.assert_allclose(
            ball_volumes_at_nodes(space, r), ball_volumes_at_nodes(table, r), rtol=1e-13, atol=0.0
        )
        assert np.array_equal(ball_volumes_at_nodes(counts, r), ball_volumes_at_nodes(count_table, r))
    # one batched call over a (node x radius) grid, the empty ball included
    nodes = np.arange(n)[:, None]
    grid = np.array([*radii, 0.0])
    np.testing.assert_allclose(
        ball_volume(space, nodes, grid), ball_volume(table, nodes, grid), rtol=1e-13, atol=0.0
    )
    assert np.array_equal(ball_volume(counts, nodes, grid), ball_volume(count_table, nodes, grid))
    assert not ball_volume(space, nodes, 0.0).any()


def test_sorted_runs_count_shuffled_euclidean_nodes_exactly():
    rng = np.random.default_rng(3)
    points = rng.permutation(np.round(rng.uniform(-2.0, 2.0, size=300), 2))  # ties included
    space = MetricMeasureSpace(points, np.ones(points.size), METRIC_EUCLIDEAN)
    gaps = np.abs(points[:20] - points[20:40])
    for r in (*gaps[gaps > 0], 1e-3, 0.25, 1.0, 5.0):
        assert np.array_equal(ball_volumes_at_nodes(space, r), _dense_volumes(space, r))


def test_sorted_runs_keep_tiny_balls_of_a_heavy_weight():
    # Next to x = -1 a ball holds about 1e-51 of the mass; a prefix-sum
    # difference there keeps nothing of it.
    space = make_jacobi_space(5.0, 20.0, 512)
    vols = ball_volumes_at_nodes(space, 0.05)
    dense = _dense_volumes(space, 0.05)
    assert vols.min() < 1e-45 * space.total_mass
    np.testing.assert_allclose(vols, dense, rtol=1e-13, atol=0.0)


def _doubling_by_loop(space, centers, radii):
    """estimate_doubling as a per-center loop over rows of the distance table."""
    reverse_cut = space.diameter / 3.0
    ratios, reverse_ratios, unit_masses = [], [], []
    for c in centers:
        d = space.distance_matrix[c]
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


@pytest.mark.parametrize("metric", [METRIC_ARCCOS, METRIC_EUCLIDEAN])
def test_diameter_equals_table_maximum_bitwise(metric):
    rng = np.random.default_rng(8)
    points = np.sort(rng.uniform(-1.0, 1.0, size=257))
    for pts in (points, rng.permutation(points)):
        space = MetricMeasureSpace(pts, np.ones(pts.size), metric)
        assert space.diameter == float(space.distance_matrix.max())
    jacobi = make_jacobi_space(3.0, -0.5, 300)
    assert jacobi.diameter == float(jacobi.distance_matrix.max())


def test_node_distances_equal_table_entries(legendre_space):
    i = np.arange(legendre_space.n)
    j = i[::-1]
    assert np.array_equal(legendre_space.node_distances(i, j), legendre_space.distance_matrix[i, j])


def test_uniform_line_has_dimension_one():
    # Equal masses on an evenly spaced line: volume grows linearly in r.
    n, h = 200, 0.01
    idx = np.arange(n, dtype=float)
    table = np.abs(idx[:, None] - idx[None, :]) * h
    space = MetricMeasureSpace(idx, np.full(n, h), METRIC_TABLE, table)
    rng = np.random.default_rng(0)
    centers = np.arange(n // 3, 2 * n // 3)
    radii = rng.uniform(5 * h, 20 * h, size=10)
    profile = estimate_doubling(space, centers, radii)
    assert 0.9 <= profile.k_hat <= 1.35
    assert profile.k_hat >= profile.alpha_hat >= 0.0
    assert profile.a_caret == 2.0 ** (-profile.k_hat) * profile.a_noncollapse


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


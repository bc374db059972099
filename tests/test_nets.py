"""Net construction invariants, partition sandwich, serialization, sums."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_metric import distance_table, greedy_net_centers
from heatframe import (
    ContractError,
    DomainError,
    Net,
    ball_volume,
    build_maximal_net,
    build_partition,
    cell_masses,
    load_net,
    make_jacobi_space,
    save_net,
    verify_net_sums,
)
from heatframe import cli

SPACE = make_jacobi_space(0.0, 0.0, 64)
TABLE = distance_table(SPACE)


def _net_distances(net):
    return TABLE[np.ix_(net.centers, net.centers)]


def test_separation_and_covering():
    delta = 0.1
    net = build_maximal_net(SPACE, delta)
    dists = _net_distances(net)
    off_diag = dists + np.eye(net.size) * (2 * delta)
    assert off_diag.min() >= delta
    to_centers = TABLE[:, net.centers]
    assert to_centers.min(axis=1).max() <= delta


def test_partition_is_total_and_sandwiched():
    delta = 0.1
    net = build_partition(SPACE, build_maximal_net(SPACE, delta))
    assign = net.assignment
    assert assign is not None and assign.shape == (SPACE.n,)
    assert np.all(assign >= 0) and np.all(assign < net.size)
    # Outer inclusion: every point sits within delta of its own center.
    own = TABLE[np.arange(SPACE.n), net.centers[assign]]
    assert own.max() < delta
    # Inner inclusion: a point strictly inside some half ball belongs to it.
    to_centers = TABLE[:, net.centers]
    for j in range(net.size):
        inside = to_centers[:, j] < delta / 2.0
        assert np.all(assign[inside] == j)


def test_cell_masses_partition_total_mass():
    net = build_partition(SPACE, build_maximal_net(SPACE, 0.2))
    masses = cell_masses(SPACE, net)
    assert masses.shape == (net.size,)
    assert np.all(masses > 0.0)
    assert float(masses.sum()) == pytest.approx(SPACE.total_mass, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(delta=st.floats(0.05, 1.0))
def test_net_invariants_for_any_scale(delta):
    net = build_partition(SPACE, build_maximal_net(SPACE, delta))
    dists = _net_distances(net)
    if net.size > 1:
        off = dists[~np.eye(net.size, dtype=bool)]
        assert off.min() >= delta
    to_centers = TABLE[:, net.centers]
    assert to_centers.min(axis=1).max() <= delta
    assert float(cell_masses(SPACE, net).sum()) == pytest.approx(
        SPACE.total_mass, abs=1e-12
    )


WEIGHTS = [(0.0, 0.0), (3.0, -0.5), (-0.5, -0.5), (1.5, -0.5), (5.0, 20.0), (40.0, 40.0), (-0.9, 8.0), (0.001, -0.002)]


@pytest.mark.parametrize("gamma, alpha", WEIGHTS)
def test_sweep_equals_the_greedy_over_every_center(gamma, alpha):
    for n in (2, 3, 17, 256, 2048):
        space = make_jacobi_space(gamma, alpha, n)
        gaps = np.abs(np.diff(np.arccos(space.points)))
        # a scale equal to one node gap puts a point exactly at distance delta
        for delta in (0.01, 0.05, 0.1, 0.3, 1.0, float(gaps[n // 2 - 1])):
            net = build_maximal_net(space, delta)
            assert net.centers.tolist() == greedy_net_centers(space, delta).tolist(), (n, delta)


def test_partition_rejects_a_net_that_is_not_separated_or_not_maximal():
    with pytest.raises(ContractError, match="separated"):
        build_partition(SPACE, Net(delta=0.1, centers=np.array([0, 1])))
    with pytest.raises(ContractError, match="maximal"):
        build_partition(SPACE, Net(delta=0.1, centers=np.array([0])))


def test_net_command_peaks_below_one_dense_table(tmp_path):
    # one 2048 x 2048 float64 table is 33.5 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["net", "--nodes", "2048", "--delta", "0.05", "--out", str(tmp_path / "net.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2048 * 2048 * 8


def test_duplicate_centers_rejected():
    with pytest.raises(DomainError):
        Net(delta=0.1, centers=np.array([3, 3]))


def test_net_round_trip(tmp_path):
    net = build_partition(SPACE, build_maximal_net(SPACE, 0.15))
    path = tmp_path / "net.json"
    save_net(net, str(path))
    loaded = load_net(str(path))
    assert loaded.delta == net.delta
    assert np.array_equal(loaded.centers, net.centers)
    assert np.array_equal(loaded.assignment, net.assignment)


def test_net_sums_pass_with_printed_constants():
    delta = 0.2
    net = build_partition(SPACE, build_maximal_net(SPACE, delta))
    rng = np.random.default_rng(3)
    probes = rng.integers(0, SPACE.n, size=10)
    others = rng.integers(0, SPACE.n, size=10)
    all_ids = set()
    for s, s2 in zip(probes, others):
        reports = verify_net_sums(SPACE, net, s, 2 * delta, sigma_exp=5.0, k=2, s2=s2)
        assert all(r.passed for r in reports)
        all_ids.update(r.check_id for r in reports)
    assert all_ids == {
        "net.sum.cell_decay",
        "net.sum.center_decay",
        "net.sum.cell_volume_ratio",
        "net.sum.envelope_product",
        "net.sum.decay_product",
    }


def test_net_sums_low_exponent_skips_product_parts():
    net = build_partition(SPACE, build_maximal_net(SPACE, 0.2))
    reports = verify_net_sums(SPACE, net, 38, 0.4, sigma_exp=3.0, k=2)
    ids = {r.check_id for r in reports}
    assert "net.sum.envelope_product" not in ids
    assert "net.sum.decay_product" not in ids
    assert all(r.passed for r in reports)


def test_net_sum_constant_is_exact_at_unit_exponent():
    # Rounded-up exponent 1: the pure center sum carries constant 2^(3k+2) = 32.
    net = build_partition(SPACE, build_maximal_net(SPACE, 0.2))
    reports = verify_net_sums(SPACE, net, 34, 0.4, sigma_exp=3.0, k=1)
    by_id = {r.check_id: r for r in reports}
    assert by_id["net.sum.center_decay"].paper_constant == 32.0
    assert by_id["net.sum.cell_decay"].paper_constant == 16.0
    assert by_id["net.sum.cell_decay"].rhs == pytest.approx(
        16.0 * ball_volume(SPACE, 34, 0.2)
    )

"""Heat kernel: analytic small-case oracle, semigroup laws, Gaussian fits."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from heatframe import (
    DomainError,
    ExactnessError,
    JacobiParams,
    MetricMeasureSpace,
    SamplingError,
    TruncationWarning,
    build_basis,
    factored_kernel,
    fit_gaussian_bounds,
    heat_kernel,
    kernel_to_csv,
    make_jacobi_space,
    verify_eigen_action,
    verify_holder,
    verify_markov,
    verify_semigroup,
)


def test_two_node_kernel_matches_closed_form():
    # With two nodes and degree 1 the expansion is finite and explicit:
    # h_t(x, y) = 1/2 + (3/2) x y e^(-2t).
    space = make_jacobi_space(0.0, 0.0, 2)
    basis = build_basis(space, JacobiParams(0.0, 0.0), 1)
    for t in (0.3, 1.0, 2.5):
        with pytest.warns(TruncationWarning):  # degree 1 leaves the tail exp(-2t)
            kernel = heat_kernel(basis, t)
        x = space.points
        expected = 0.5 + 1.5 * np.outer(x, x) * math.exp(-2.0 * t)
        assert kernel == pytest.approx(expected, abs=1e-14)
        assert kernel @ space.weights == pytest.approx(np.ones(2), abs=1e-14)


def test_kernel_is_symmetric_and_nearly_positive(legendre_space, legendre_basis):
    kernel = heat_kernel(legendre_basis, 0.5)
    assert np.array_equal(kernel, kernel.T)
    assert kernel.min() >= -1e-9


def test_kernel_rejects_bad_time(legendre_basis):
    with pytest.raises(DomainError):
        heat_kernel(legendre_basis, 0.0)
    with pytest.raises(DomainError):
        heat_kernel(legendre_basis, -1.0)


def test_truncation_warning_when_tail_is_visible(legendre_space):
    shallow = build_basis(legendre_space, JacobiParams(0.0, 0.0), 5)
    with pytest.warns(TruncationWarning):
        heat_kernel(shallow, 0.01)


def test_markov_identity(legendre_space, legendre_basis):
    for t in (0.05, 0.1, 0.5, 1.0):
        report = verify_markov(legendre_basis, t)
        assert report.passed
        assert report.rhs == 1e-8
        assert report.paper_constant == 1.0


def test_constant_function_is_fixed_point(legendre_space, legendre_basis):
    ones = np.ones(legendre_space.n)
    evolved = (legendre_space.weights * ones) @ heat_kernel(legendre_basis, 0.7)
    assert evolved == pytest.approx(ones, abs=1e-10)


def test_semigroup_composition(legendre_space, legendre_basis):
    report = verify_semigroup(legendre_space, legendre_basis, 0.3, 0.4)
    assert report.passed
    assert report.lhs <= 1e-7


def test_semigroup_catches_perturbed_basis_values(legendre_space, legendre_basis):
    # Values perturbed by 1e-6 relative break the Gram identity; the pinned
    # defect is the one the dense-table composition reports for this draw.
    rng = np.random.default_rng(0)
    values = legendre_basis.values * (
        1.0 + 1e-6 * rng.standard_normal(legendre_basis.values.shape)
    )
    corrupted = dataclasses.replace(legendre_basis, values=values)
    report = verify_semigroup(legendre_space, corrupted, 0.3, 0.4)
    assert not report.passed
    assert report.lhs == pytest.approx(3.973949538312705e-07, rel=1e-6)


def test_semigroup_catches_basis_of_another_weight(legendre_basis):
    # Legendre rows are not orthonormal under the gamma = 0.5 weights.
    other = make_jacobi_space(0.5, 0.0, 64)
    report = verify_semigroup(other, legendre_basis, 0.3, 0.4)
    assert not report.passed
    assert report.lhs == pytest.approx(0.4923338745288967, rel=1e-6)


def test_semigroup_rejects_nonpositive_time(legendre_space, legendre_basis):
    with pytest.raises(DomainError):
        verify_semigroup(legendre_space, legendre_basis, 0.0, 0.4)
    with pytest.raises(DomainError):
        verify_semigroup(legendre_space, legendre_basis, 0.3, -0.1)


@pytest.mark.parametrize("gamma, alpha", [(0.0, 0.0), (3.0, -0.5)])
def test_factored_kernel_matches_dense_table(gamma, alpha):
    space = make_jacobi_space(gamma, alpha, 64)
    basis = build_basis(space, JacobiParams(gamma, alpha), 40)
    rows, cols = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    for t in (0.05, 0.5):
        table = heat_kernel(basis, t)
        view = factored_kernel(basis, t)
        scale = float(np.abs(table).max())
        entries = view.entries(rows.ravel(), cols.ravel()).reshape(64, 64)
        assert np.abs(entries - table).max() <= 1e-13 * scale
        # a sparse draw with repeated nodes, as the fits sample it
        i, j = np.random.default_rng(7).integers(0, 64, (2, 150))
        assert np.abs(view.entries(i, j) - table[i, j]).max() <= 1e-13 * scale
        assert np.abs(view.diagonal() - np.diag(table)).max() <= 1e-13 * scale
        # positive semidefinite: the largest |h_t| sits on the diagonal
        assert float(view.diagonal().max()) == pytest.approx(scale, rel=1e-12)


def test_factored_kernel_keeps_time_and_tail_checks(legendre_space, legendre_basis):
    with pytest.raises(DomainError):
        factored_kernel(legendre_basis, 0.0)
    shallow = build_basis(legendre_space, JacobiParams(0.0, 0.0), 5)
    with pytest.warns(TruncationWarning):
        factored_kernel(shallow, 0.01)


def test_factored_kernel_matches_neumann_closed_form():
    # gamma = alpha = -1/2: x = cos(theta) carries dtheta on [0, pi], beta_k = k^2,
    # and h_t is the Neumann heat kernel
    # 1/pi + (2/pi) sum_k exp(-k^2 t) cos(k theta) cos(k phi).
    n = 128
    space = make_jacobi_space(-0.5, -0.5, n)
    basis = build_basis(space, JacobiParams(-0.5, -0.5), n - 1)
    theta = np.arccos(space.points)
    k = np.arange(1, n)[:, None]
    cosines = np.cos(k * theta)
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for t in (0.05, 0.2, 1.0):
        closed = 1.0 / math.pi + (2.0 / math.pi) * (
            cosines.T @ (np.exp(-(k[:, 0] ** 2) * t)[:, None] * cosines)
        )
        entries = factored_kernel(basis, t).entries(rows.ravel(), cols.ravel()).reshape(n, n)
        assert np.abs(entries - closed).max() <= 1e-12 * np.abs(closed).max()


@pytest.mark.parametrize("gamma, alpha", [(0.0, 0.0), (3.0, -0.5)])
def test_factored_identities_match_a_dense_table(gamma, alpha):
    space = make_jacobi_space(gamma, alpha, 64)
    basis = build_basis(space, JacobiParams(gamma, alpha), 51)
    w = space.weights
    for t in (0.1, 0.5):
        decay = np.exp(-basis.eigenvalues * t)
        table = basis.values.T @ (decay[:, None] * basis.values)  # V^T diag(d) V
        dense_markov = float(np.abs(table @ w - 1.0).max())
        assert abs(verify_markov(basis, t).lhs - dense_markov) <= 1e-13
        images = (basis.values[:11] * w) @ table
        dense_action = np.abs(images - decay[:11, None] * basis.values[:11]).max(axis=1)
        report = verify_eigen_action(basis, t, 10)
        assert abs(report.lhs - float(dense_action.max())) <= 1e-13
        assert report.passed and report.context["max_index"] == 10


def test_markov_catches_weights_off_by_a_millionth(legendre_space, legendre_basis):
    # the factored row integrals see every weight: 1 + 1e-6 times the rule
    # integrates each row to 1 + 1e-6, a hundred times the tolerance
    heavier = MetricMeasureSpace(legendre_space.points, legendre_space.weights * (1.0 + 1e-6))
    report = verify_markov(dataclasses.replace(legendre_basis, space=heavier), 0.5)
    assert not report.passed
    assert report.lhs == pytest.approx(1e-6, rel=1e-6)


def test_eigen_action_catches_weights_off_by_a_millionth(legendre_space, legendre_basis):
    # H P_i integrates against the weights, so 1 + 1e-6 times the rule scales
    # every image by 1 + 1e-6; the largest defect is 1e-6 P_0 = 1e-6 / sqrt(2),
    # seven hundred times the tolerance
    heavier = MetricMeasureSpace(legendre_space.points, legendre_space.weights * (1.0 + 1e-6))
    report = verify_eigen_action(dataclasses.replace(legendre_basis, space=heavier), 0.5, 10)
    assert not report.passed
    assert report.lhs == pytest.approx(1e-6 / math.sqrt(2.0), rel=1e-6)


def test_eigenfunction_action(legendre_basis):
    for t in (0.1, 0.5):
        report = verify_eigen_action(legendre_basis, t, 10)
        assert report.passed
        assert report.lhs <= 1e-9


def test_gaussian_fit_produces_finite_positive_constants(legendre_basis, rng):
    theta = rng.uniform(0.0, math.pi, size=(80, 2))
    pairs = [tuple(np.cos(row)) for row in theta]
    report = fit_gaussian_bounds(legendre_basis, (0.1, 0.5, 1.0), pairs)
    assert report.passed
    ctx = report.context
    for key in ("K", "a", "c1_prime", "c1"):
        assert math.isfinite(ctx[key])
    assert ctx["K"] > 0.0 and ctx["a"] > 0.0
    assert ctx["n_nonpositive"] == 0
    assert ctx["n_used"] + ctx["n_below_floor"] <= ctx["n_samples"]


@pytest.mark.parametrize("gamma, alpha, n", [(0.0, 0.0, 64), (3.0, -0.5, 97), (-0.5, -0.5, 2), (40.0, 40.0, 256)])
def test_nearest_indices_equal_the_argmin(gamma, alpha, n):
    space = make_jacobi_space(gamma, alpha, n)
    x = space.points
    midpoints = x[:-1] + (x[1:] - x[:-1]) / 2.0  # exact ties where the rounding allows
    coords = np.concatenate(
        [[-1.0, 1.0, 0.0], x, midpoints, np.nextafter(midpoints, -2.0), np.nextafter(midpoints, 2.0),
         np.cos(np.random.default_rng(n).uniform(0.0, math.pi, size=200))]
    )
    expected = [int(np.argmin(np.abs(x - c))) for c in coords]
    assert space.snap(coords).tolist() == expected
    ties = np.abs(x[:-1] - midpoints) == np.abs(x[1:] - midpoints)
    assert space.snap(midpoints[ties]).tolist() == np.flatnonzero(ties).tolist()


def test_gaussian_fit_rejects_visible_truncation(legendre_space):
    shallow = build_basis(legendre_space, JacobiParams(0.0, 0.0), 10)
    with pytest.raises(ExactnessError):
        fit_gaussian_bounds(shallow, (0.05,), [(0.0, 0.5)])


def test_holder_exponent_is_positive(legendre_basis, rng):
    triples = []
    for _ in range(40):
        s1, s2 = rng.uniform(-0.9, 0.9, size=2)
        theta = math.acos(s2) + rng.uniform(0.02, 0.2)
        triples.append((float(s1), float(s2), math.cos(min(theta, math.pi))))
    rate = fit_gaussian_bounds(legendre_basis, (0.1, 0.5), [(s1, s2) for s1, s2, _ in triples]).context["a"]
    report = verify_holder(legendre_basis, (0.1, 0.5), triples, rate)
    assert report.passed
    assert report.context["gamma_H"] > 0.0
    assert math.isfinite(report.context["K_H"])


def test_holder_requires_admissible_triples(legendre_basis):
    # A move of size ~pi can never satisfy d <= sqrt(t) for t <= 1.
    with pytest.raises(SamplingError):
        verify_holder(legendre_basis, (0.1,), [(0.0, 0.99, -0.99)], decay_rate=0.5)


_EDGE = np.array(
    [
        [-0.0, 5e-324, 1e308, -1.5],
        [2.2250738585072014e-308, -1e308, 0.1, -2.5e-310],
        [1.0, -0.0, 123456789.0, -1e-5],
        [0.0, -7e-320, 1.7976931348623157e308, 3.0],
    ]
)


def _csv_writer_oracle(table, path):
    """The writer ``kernel_to_csv`` replaced: one ``csv.writer`` row per entry."""
    n = table.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_index", "y_index", "value"])
        for i in range(n):
            for j in range(n):
                writer.writerow([str(i), str(j), repr(float(table[i, j]))])


def test_kernel_csv_bytes_match_the_csv_writer(tmp_path, legendre_basis):
    for k, table in enumerate((_EDGE, heat_kernel(legendre_basis, 0.5))):
        kernel_to_csv(table, str(tmp_path / f"new{k}.csv"))
        _csv_writer_oracle(table, tmp_path / f"old{k}.csv")
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()


def _mirrored_zeros_and_nans():
    """A table whose mirrored pairs 0.0 / -0.0, NaN / sign-flipped NaN and
    0.1 / 0.2 differ bitwise, and whose pairs -0.0 / -0.0, NaN / NaN and the
    rest are bitwise equal."""
    table = np.arange(16.0).reshape(4, 4) / 7.0
    table = table + table.T
    table[0, 1], table[1, 0] = 0.0, -0.0
    table[0, 2], table[2, 0] = 0.1, 0.2
    table[0, 3], table[3, 0] = np.nan, math.copysign(math.nan, -1.0)
    table[1, 3], table[3, 1] = -0.0, -0.0
    table[2, 3], table[3, 2] = np.nan, np.nan
    return table


def _heat_kernel_at(gamma, alpha, n, degree, t):
    return heat_kernel(build_basis(make_jacobi_space(gamma, alpha, n), JacobiParams(gamma, alpha), degree), t)


@pytest.mark.parametrize(
    "make_table",
    [
        _mirrored_zeros_and_nans,
        lambda: np.array([[-0.0]]),
        lambda: _EDGE.T,
        lambda: np.asfortranarray(_EDGE),
        lambda: _heat_kernel_at(3.0, -0.5, 128, 102, 0.5),
    ],
    ids=["mirrored-zeros-and-nans", "one-entry", "transposed-view", "fortran-order", "heat-kernel-128"],
)
def test_kernel_csv_reusing_mirrored_strings_keeps_the_oracle_bytes(tmp_path, make_table):
    table = make_table()
    kernel_to_csv(table, str(tmp_path / "new.csv"))
    _csv_writer_oracle(table, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("gamma, alpha, n, degree, t", [(0.0, 0.0, 512, 400, 0.5), (0.5, -0.5, 64, 51, 0.3)])
def test_heat_kernel_tables_are_bitwise_symmetric(gamma, alpha, n, degree, t):
    # kernel_to_csv formats each mirrored pair once because of this.
    bits = _heat_kernel_at(gamma, alpha, n, degree, t).view(np.uint64)
    assert np.array_equal(bits, bits.T)


def test_kernel_csv_rejects_a_table_that_is_not_square(tmp_path):
    with pytest.raises(DomainError):
        kernel_to_csv(np.zeros((3, 4)), str(tmp_path / "kernel.csv"))
    assert not (tmp_path / "kernel.csv").exists()


def test_kernel_csv_round_trip(tmp_path, legendre_basis):
    kernel = heat_kernel(legendre_basis, 0.5)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(kernel, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_index", "y_index", "value"]
    assert len(rows) == 1 + 64 * 64
    i, j, value = rows[1 + 5 * 64 + 7]
    assert (int(i), int(j)) == (5, 7)
    assert float(value) == kernel[5, 7]

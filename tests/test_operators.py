"""Norms, dominated operators, mapping bounds, band decomposition."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from heatframe import (
    ContractError,
    DomainError,
    EnvelopeParams,
    FactoredKernel,
    JacobiParams,
    PreconditionError,
    band_decompose,
    band_index,
    build_basis,
    build_maximal_net,
    decomposition_to_csv,
    dominated_operator,
    envelope,
    estimate_doubling,
    factored_kernel,
    heat_kernel,
    lp_norm,
    make_jacobi_space,
    random_polynomials,
    verify_band_decomposition,
    verify_schur,
    verify_young,
)
from heatframe import cli
from heatframe.operators import SCHUR_ORDERS

# an envelope at the fixture scale that dominates every kernel built here
PARAMS = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)


def test_lp_norm_hand_values():
    w = np.array([1.0, 2.0, 4.0])
    f = np.array([1.0, -2.0, 3.0])
    assert lp_norm(w, f, 1.0) == pytest.approx(17.0)
    assert lp_norm(w, f, 2.0) == pytest.approx(math.sqrt(45.0))
    assert lp_norm(w, f, math.inf) == 3.0
    with pytest.raises(DomainError):
        lp_norm(w, f, 0.5)


def test_low_pass_projector_on_square(legendre_space, legendre_basis):
    # Projecting x^2 onto span{1, x} leaves the mean: <x^2, 1>/<1, 1> = 1/3.
    low_pass = (legendre_basis.eigenvalues <= 2.0).astype(float)
    # exact: nothing truncated
    kernel = FactoredKernel(space=legendre_space, rows=legendre_basis.values, decay=low_pass, tail=0.0)
    projected = kernel.apply(legendre_space.points**2)
    assert projected == pytest.approx(np.full(64, 1.0 / 3.0), abs=1e-12)
    for misaligned in (np.ones(63), np.ones((2, 2, 64))):
        with pytest.raises(ContractError, match="nodal values must align with the space"):
            kernel.apply(misaligned)


def test_heat_kernel_matches_the_legendre_series(legendre_space, legendre_basis):
    # h_t(x, y) = sum_i (2i + 1)/2 exp(-i(i + 1) t) P_i(x) P_i(y) with numpy's
    # Legendre polynomials, which share no code with the basis recurrence.
    t = 0.4
    x = legendre_space.points
    legendre = np.polynomial.legendre.legvander(x, legendre_basis.degree).T
    i = np.arange(legendre_basis.size)
    series = legendre.T @ (((2 * i + 1) / 2.0 * np.exp(-i * (i + 1) * t))[:, None] * legendre)
    kernel = heat_kernel(legendre_basis, t)
    assert np.abs(series - kernel).max() <= 1e-13 * np.abs(kernel).max()


def test_domination_fit_and_envelope_underflow(legendre_space, legendre_basis):
    kernel = factored_kernel(legendre_basis, PARAMS.delta**2)
    op = dominated_operator(kernel, PARAMS)
    assert 0.0 < op.a_prime < math.inf
    # (1 + pi/0.2)^-300 underflows to 0 at the far pairs, where H does not vanish
    with pytest.raises(PreconditionError, match=r"envelope .* underflows at sigma = 300.*vacuous"):
        dominated_operator(kernel, EnvelopeParams(delta=PARAMS.delta, sigma_exp=300.0, k=2))
    with pytest.raises(ContractError, match="kernel must cover all node pairs of the space"):
        FactoredKernel(legendre_space, kernel.rows[:, :10], kernel.decay, kernel.tail)


def _doubling(space):
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.05, space.diameter / 3.0, size=12)
    return estimate_doubling(space, np.arange(space.n), radii)


@pytest.mark.filterwarnings("ignore::heatframe.TruncationWarning")  # (5, 20) at degree 19 truncates
def test_domination_max_is_the_whole_table_max_within_one_table_of_memory():
    configs = ((0.0, 0.0, 1024, 800, 0.04), (3.0, 0.5, 64, 51, 0.04), (5.0, 20.0, 128, 19, 0.0025))
    for gamma, alpha, nodes, degree, t in configs:
        space = make_jacobi_space(gamma, alpha, nodes)
        basis = build_basis(space, JacobiParams(gamma, alpha), degree)
        kernel = factored_kernel(basis, t)
        params = EnvelopeParams(delta=math.sqrt(t), sigma_exp=5.0, k=2)
        tracemalloc.start()
        try:
            op = dominated_operator(kernel, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if nodes == 1024:  # smaller tables fit in one row block
            # the whole-table form held four N x N tables at once: a 32 MiB peak
            assert peak <= nodes * nodes * 8
        table = heat_kernel(basis, t)
        seen = []
        for rows, block in kernel.upper_row_blocks():
            assert np.array_equal(block, table[rows, rows.start :]), (gamma, alpha, rows)
            seen.extend(range(nodes)[rows])
        assert seen == list(range(nodes))
        node = np.arange(nodes)
        whole = np.abs(table) / envelope(space, params, node[:, None], node[None, :])
        assert op.a_prime == float(whole.max())


def test_young_bound_holds_for_heat_kernel(legendre_space, legendre_basis, rng):
    delta = 0.2
    profile = _doubling(legendre_space)
    params = EnvelopeParams(delta=delta, sigma_exp=2 * profile.k + 1, k=profile.k)
    op = dominated_operator(factored_kernel(legendre_basis, delta**2), params)
    trials = random_polynomials(legendre_basis, 20, 16, rng)
    for p, q in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, math.inf), (2.0, math.inf)):
        report = verify_young(op, profile, p, q, trials)
        assert report.passed, (p, q, report.margin)
        assert report.context["kernel_tail"] == np.exp(-legendre_basis.eigenvalues * delta**2)[-1]
    with pytest.raises(DomainError):
        verify_young(op, profile, 2.0, 1.0, trials)


@pytest.mark.parametrize("gamma, alpha, nodes, degree", [(0.0, 0.0, 64, 40), (3.0, -0.5, 96, 76)])
def test_factored_action_and_schur_constant_match_the_dense_table(gamma, alpha, nodes, degree):
    space = make_jacobi_space(gamma, alpha, nodes)
    basis = build_basis(space, JacobiParams(gamma, alpha), degree)
    t = 0.04
    op = dominated_operator(factored_kernel(basis, t), PARAMS)
    table = heat_kernel(basis, t)
    w = space.weights
    for f in random_polynomials(basis, 5, 16, np.random.default_rng(3)):
        dense = (w * f) @ table
        assert np.abs(op.kernel.apply(f) - dense).max() <= 1e-13 * np.abs(dense).max()
    trials = random_polynomials(basis, 2, 8, np.random.default_rng(4))
    absH = np.abs(table)
    for p, q, r in ((2.0, 2.0, 1.0), (1.0, 2.0, 2.0), (1.0, math.inf, math.inf)):
        if math.isinf(r):
            slots = (absH.max(axis=0), absH.max(axis=1))
        else:
            slots = ((w @ absH**r) ** (1.0 / r), (absH**r @ w) ** (1.0 / r))
        dense_C = float(max(slots[0].max(), slots[1].max()))
        report = verify_schur(op, p, q, r, trials)
        assert report.rhs == pytest.approx(dense_C, rel=1e-13, abs=0.0)
        assert report.context["kernel_tail"] == op.kernel.tail


def _schur_norm_by_its_own_pass(kernel, r):
    """The Schur constant for one r from a pass of its own over the blocks:
    the oracle for dominated_operator's one pass over every order."""
    w = kernel.space.weights
    largest = 0.0
    powered_sums = np.zeros(kernel.space.n)
    for rows, block in kernel.upper_row_blocks():
        np.abs(block, out=block)
        if math.isinf(r):
            largest = max(largest, float(block.max()))
            continue
        block **= r
        powered_sums[rows] += block @ w[rows.start :]
        powered_sums[rows.stop :] += w[rows] @ block[:, rows.stop - rows.start :]
    return largest if math.isinf(r) else float(powered_sums.max()) ** (1.0 / r)


@pytest.mark.parametrize("gamma, alpha, nodes, degree", [(0.0, 0.0, 64, 40), (3.0, -0.5, 96, 76), (0.0, 0.0, 1024, 800)])
def test_one_pass_schur_norms_equal_a_pass_per_order_bitwise(gamma, alpha, nodes, degree):
    space = make_jacobi_space(gamma, alpha, nodes)
    basis = build_basis(space, JacobiParams(gamma, alpha), degree)
    kernel = factored_kernel(basis, 0.04)
    op = dominated_operator(kernel, PARAMS)
    assert tuple(op.schur_norms) == SCHUR_ORDERS
    for r in SCHUR_ORDERS:
        assert op.schur_norms[r] == _schur_norm_by_its_own_pass(kernel, r), r
    trials = random_polynomials(basis, 2, 8, np.random.default_rng(5))
    for p, q, r in ((2.0, 2.0, 1.0), (1.0, 2.0, 2.0), (1.0, math.inf, math.inf)):
        assert verify_schur(op, p, q, r, trials).rhs == op.schur_norms[r], r


def test_schur_orders_outside_the_one_pass_are_a_domain_error(legendre_space, legendre_basis, rng):
    op = dominated_operator(factored_kernel(legendre_basis, 0.04), PARAMS)
    trials = random_polynomials(legendre_basis, 2, 8, rng)
    # 1/1.5 - 1/3 = 1 - 1/1.5: the exponents are related, but r = 1.5 has no norm
    with pytest.raises(DomainError, match=r"r in \(1\.0, 2\.0, inf\), not r = 1\.5"):
        verify_schur(op, 1.5, 3.0, 1.5, trials)
    assert [r for _, _, r in cli.SCHUR_EXPONENTS if r not in SCHUR_ORDERS] == []


def test_young_requires_wide_envelope_exponent(legendre_space, legendre_basis, rng):
    profile = _doubling(legendre_space)
    k = profile.k
    params = EnvelopeParams(delta=0.2, sigma_exp=2 * k + 0.5, k=k)
    op = dominated_operator(factored_kernel(legendre_basis, 0.04), params)
    trials = random_polynomials(legendre_basis, 4, 8, rng)
    with pytest.raises(PreconditionError):
        verify_young(op, profile, 1.0, 2.0, trials)


def test_schur_bound_holds(legendre_space, legendre_basis, rng):
    op = dominated_operator(factored_kernel(legendre_basis, 0.3), PARAMS)
    trials = random_polynomials(legendre_basis, 10, 16, rng)
    for p, q, r in ((2.0, 2.0, 1.0), (1.0, 2.0, 2.0)):
        report = verify_schur(op, p, q, r, trials)
        assert report.passed, (p, q, r, report.margin)
    with pytest.raises(DomainError):
        verify_schur(op, 2.0, 2.0, 2.0, trials)


def test_young_and_schur_catch_a_kernel_twice_past_their_bound(legendre_space, legendre_basis, rng):
    # Scaling the decay factors by c scales every image H f by c; a' and the
    # Schur norms were taken when the operator was built, so the bound stays
    # and the measured ratio lands at twice it.
    profile = _doubling(legendre_space)
    params = EnvelopeParams(delta=0.2, sigma_exp=2 * profile.k + 1, k=profile.k)
    op = dominated_operator(factored_kernel(legendre_basis, 0.04), params)
    trials = random_polynomials(legendre_basis, 10, 16, rng)
    checks = [lambda op, p=p, q=q: verify_young(op, profile, p, q, trials) for p, q in cli.YOUNG_EXPONENTS]
    checks += [lambda op, p=p, q=q, r=r: verify_schur(op, p, q, r, trials) for p, q, r in cli.SCHUR_EXPONENTS]
    for check in checks:
        report = check(op)
        assert report.passed, report.context
        louder = dataclasses.replace(
            op, kernel=dataclasses.replace(op.kernel, decay=op.kernel.decay * (2.0 * report.rhs / report.lhs))
        )
        failed = check(louder)
        assert not failed.passed, report.context
        assert failed.rhs == report.rhs
        assert failed.lhs == pytest.approx(2.0 * report.rhs, rel=1e-12)


def test_band_index_breakpoints():
    # Block 0 holds beta <= 1; block j holds 2^(2(j-1)) < beta <= 2^(2j).
    assert band_index(0.0) == 0
    assert band_index(1.0) == 0
    assert band_index(1.0001) == 1
    assert band_index(4.0) == 1
    assert band_index(4.1) == 2
    assert band_index(16.0) == 2
    assert band_index(17.0) == 3


def test_blocks_partition_all_indices(legendre_space, legendre_basis):
    net = build_maximal_net(legendre_space, 0.2)
    f = legendre_basis.values[3] + 0.5 * legendre_basis.values[17]
    decomp = band_decompose(legendre_basis, net, f)
    seen = sorted(i for _, idx in decomp.blocks for i in idx)
    assert seen == list(range(legendre_basis.size))


def test_single_mode_concentrates_in_one_block(legendre_space, legendre_basis):
    net = build_maximal_net(legendre_space, 0.2)
    f = legendre_basis.values[3]  # beta_3 = 12, so block 2 (4 < 12 <= 16)
    decomp = band_decompose(legendre_basis, net, f)
    energies = dict(zip((j for j, _ in decomp.blocks), decomp.block_energies))
    assert energies[2] == pytest.approx(1.0, rel=1e-12)
    others = sum(v for j, v in energies.items() if j != 2)
    assert others <= 1e-20
    assert decomp.reconstruction == pytest.approx(f, abs=1e-12)


def test_band_reports_pass(legendre_space, legendre_basis, rng):
    net = build_maximal_net(legendre_space, 0.2)
    f = random_polynomials(legendre_basis, 1, legendre_basis.degree, rng)[0]
    decomp, reports = verify_band_decomposition(legendre_basis, net, f)
    assert all(r.passed for r in reports)
    assert {r.check_id for r in reports} == {
        "band.parseval",
        "band.reconstruction",
        "frame.ratio",
    }
    assert math.isfinite(decomp.frame_ratio) and decomp.frame_ratio >= 1.0


def test_decomposition_csv_layout(tmp_path, legendre_space, legendre_basis, rng):
    net = build_maximal_net(legendre_space, 0.3)
    f = random_polynomials(legendre_basis, 1, 10, rng)[0]
    decomp = band_decompose(legendre_basis, net, f)
    path = tmp_path / "decomp.csv"
    decomposition_to_csv(decomp, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "center_index", "coefficient"]
    assert len(rows) == 1 + len(decomp.blocks) * len(decomp.center_indices)

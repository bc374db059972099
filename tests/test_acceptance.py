"""Acceptance gate: every stated criterion, one printed PASS/FAIL line each.

Each test computes its verdict first, prints a single line naming the
criterion, then asserts — so the console log always carries the full
scoreboard even when a later criterion fails.
"""

import math
import subprocess
import sys
import time

import numpy as np

from dense_metric import distance_table
from heatframe import (
    EnvelopeParams,
    JacobiParams,
    band_decompose,
    build_basis,
    build_maximal_net,
    cell_masses,
    dominated_operator,
    eigenvalue,
    estimate_doubling,
    factored_kernel,
    fit_gaussian_bounds,
    make_jacobi_space,
    random_polynomials,
    verify_ball_growth,
    verify_band_decomposition,
    verify_eigen_action,
    verify_envelope_lp,
    verify_envelope_scaling,
    verify_lemma_integrals,
    verify_markov,
    verify_net_sums,
    verify_semigroup,
    verify_young,
)
from heatframe.jacobi import rows_with_derivatives


def _emit(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _degree_for(params: JacobiParams, t_min: float, tol: float = 1e-12) -> int:
    for n in range(1, 64):
        if math.exp(-eigenvalue(n, params) * t_min) < tol:
            return n
    raise AssertionError("no admissible degree below the node count")


def test_criterion_01_markov_identity():
    make_jacobi_space.cache_clear()  # the timing includes building the rules
    start = time.perf_counter()
    worst = 0.0
    for gamma, alpha in ((0.0, 0.0), (0.5, -0.3)):
        space = make_jacobi_space(gamma, alpha, 64)
        params = JacobiParams(gamma, alpha)
        basis = build_basis(space, params, _degree_for(params, 0.05))
        for t in (0.05, 0.1, 0.5, 1.0):
            report = verify_markov(basis, t)
            worst = max(worst, report.lhs)
            assert report.passed
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _emit(
        "criterion-01 markov-identity",
        ok,
        f"max row defect {worst:.3e} <= 1e-8 in {elapsed:.2f}s",
    )


def test_criterion_02_semigroup_identity(legendre_space, legendre_basis):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        t, s = rng.uniform(0.05, 1.0, size=2)
        report = verify_semigroup(legendre_space, legendre_basis, float(t), float(s))
        worst = max(worst, report.lhs)
        assert report.passed
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 20.0
    _emit(
        "criterion-02 semigroup-identity",
        ok,
        f"max relative defect {worst:.3e} <= 1e-7 in {elapsed:.2f}s",
    )


def test_criterion_03_eigenfunction_action(legendre_basis):
    worst = 0.0
    for t in (0.1, 0.5):
        report = verify_eigen_action(legendre_basis, t, 10)
        worst = max(worst, report.lhs)
        assert report.passed
    exact_beta_1 = eigenvalue(1, JacobiParams(0.0, 0.0))
    ok = worst <= 1e-9 and exact_beta_1 == 2.0
    _emit(
        "criterion-03 eigenfunction-action",
        ok,
        f"max defect {worst:.3e} <= 1e-9 for i <= 10; beta_1 = {exact_beta_1}",
    )


def test_criterion_04_net_invariants(legendre_space):
    space = legendre_space
    details = []
    ok = True
    for delta in (0.05, 0.1, 0.2):
        net = build_maximal_net(space, delta)
        table = distance_table(space)
        center_d = table[np.ix_(net.centers, net.centers)]
        off = center_d[~np.eye(net.size, dtype=bool)]
        separation_ok = bool(off.min() >= delta) if net.size > 1 else True
        to_centers = table[:, net.centers]
        covering_ok = bool(to_centers.min(axis=1).max() <= delta)
        assign = net.assignment
        own = table[np.arange(space.n), net.centers[assign]]
        outer_ok = bool(own.max() < delta)
        inner_ok = all(
            np.all(assign[to_centers[:, j] < delta / 2.0] == j)
            for j in range(net.size)
        )
        mass_gap = abs(float(cell_masses(space, net).sum()) - space.total_mass)
        mass_ok = mass_gap <= 1e-12
        ok = ok and separation_ok and covering_ok and outer_ok and inner_ok and mass_ok
        details.append(f"delta={delta}: {net.size} centers, mass gap {mass_gap:.1e}")
    _emit("criterion-04 net-invariants", ok, "; ".join(details))


def test_criterion_05_paper_constant_inequality_suite(legendre_space):
    start = time.perf_counter()
    space = legendre_space
    rng = np.random.default_rng(2024)
    radii = rng.uniform(0.05, space.diameter / 3.0, size=12)
    profile = estimate_doubling(space, np.arange(space.n), radii)
    k = profile.k
    sigma = 2 * k + 1.0
    delta = 0.2
    params = EnvelopeParams(delta=delta, sigma_exp=sigma, k=k)
    reports = []

    growth_samples = [
        (
            int(rng.integers(0, space.n)),
            int(rng.integers(0, space.n)),
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(1.0, 3.0)),
        )
        for _ in range(60)
    ]
    reports += verify_ball_growth(space, profile, growth_samples)

    pairs = [tuple(rng.integers(0, space.n, size=2)) for _ in range(50)]
    reports += verify_lemma_integrals(space, params, pairs)
    for beta in (0.5, 2.0):
        reports += verify_envelope_scaling(space, params, beta, pairs)
    for p in (1.0, 2.0, 4.0, math.inf):
        reports += verify_envelope_lp(space, params, p, np.linspace(0, space.n - 1, 13).astype(int))

    net = build_maximal_net(space, delta)
    for _ in range(50):
        s, s2 = rng.integers(0, space.n, size=2)
        reports += verify_net_sums(space, net, s, EnvelopeParams(2 * delta, sigma, k), s2)

    by_id: dict[str, list] = {}
    for r in reports:
        by_id.setdefault(r.check_id, []).append(r)
    counts = {cid: len(group) for cid, group in sorted(by_id.items())}
    all_passed = all(r.passed for r in reports)
    enough = all(c >= 50 for c in counts.values())
    constants_exact = (
        EnvelopeParams(delta=1.0, sigma_exp=2.0, k=1).a1 == 4.0
        and verify_net_sums(space, net, 34, EnvelopeParams(2 * delta, 3.0, 1), 34)[1].paper_constant
        == 32.0
    )
    elapsed = time.perf_counter() - start
    ok = all_passed and enough and constants_exact and elapsed < 60.0
    _emit(
        "criterion-05 inequality-suite",
        ok,
        f"{len(reports)} reports over {len(counts)} families "
        f"(min count {min(counts.values())}), 100% pass = {all_passed}, "
        f"a1(k=1,s=2) = 4 and center-sum constant 32 exact = {constants_exact}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_06_young_bound(legendre_space, legendre_basis):
    space = legendre_space
    rng = np.random.default_rng(77)
    radii = rng.uniform(0.05, space.diameter / 3.0, size=12)
    profile = estimate_doubling(space, np.arange(space.n), radii)
    delta = 0.2
    params = EnvelopeParams(delta=delta, sigma_exp=2 * profile.k + 1.0, k=profile.k)
    op = dominated_operator(factored_kernel(legendre_basis, delta**2), params)
    trials = random_polynomials(legendre_basis, 20, 16, rng)
    failures = 0
    worst_margin = math.inf
    for p, q in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, math.inf), (2.0, math.inf)):
        report = verify_young(op, profile, p, q, trials)
        worst_margin = min(worst_margin, report.margin)
        failures += 0 if report.passed else 1
    ok = failures == 0
    _emit(
        "criterion-06 young-bound",
        ok,
        f"0 failures over 5 exponent pairs x 20 trials at t = delta^2; "
        f"worst margin {worst_margin:.3e}",
    )


def test_criterion_07_gaussian_fit_stability(legendre_basis):
    rng = np.random.default_rng(314)
    theta = rng.uniform(0.0, math.pi, size=(150, 2))
    pairs = [tuple(np.cos(row)) for row in theta]
    t_grid = (0.05, 0.1, 0.2, 0.5, 1.0)
    base = fit_gaussian_bounds(legendre_basis, t_grid, pairs)
    big_space = make_jacobi_space(0.0, 0.0, 128)
    big_basis = build_basis(big_space, JacobiParams(0.0, 0.0), 80)
    refined = fit_gaussian_bounds(big_basis, t_grid, pairs)
    keys = ("K", "a", "c1_prime", "c1")
    finite = all(
        math.isfinite(ctx[key])
        for ctx in (base.context, refined.context)
        for key in keys
    )
    drift = max(
        abs(refined.context[key] - base.context[key]) / abs(base.context[key])
        for key in keys
    )
    ok = base.passed and refined.passed and finite and drift < 0.2
    fitted = ", ".join(f"{key}={base.context[key]:.4f}" for key in keys)
    _emit(
        "criterion-07 gaussian-fit-stability",
        ok,
        f"{fitted}; max drift {drift:.3f} < 0.2 under doubled resolution",
    )


def test_criterion_08_energy_identity():
    # Integration by parts against the weight: the carre du champ
    # Gamma(f, g) = (1 - x^2) f' g' of the Poincare fit integrates to
    # <L f, g>, so on the eigenbasis it gives beta_i delta_ij.  The degree
    # 2m integrand is inside the rule's exactness, and P' comes from the
    # route verify_poincare reads.
    m = 10
    worst = 0.0
    for gamma, alpha in ((0.0, 0.0), (-0.5, -0.5), (3.0, -0.5)):
        params = JacobiParams(gamma, alpha)
        space = make_jacobi_space(gamma, alpha, 64)
        _, derivs = rows_with_derivatives(params, space.points, m + 1)
        x = space.points
        energy = (derivs * ((1.0 - x * x) * space.weights)) @ derivs.T
        beta = np.array([eigenvalue(i, params) for i in range(m + 1)])
        # relative to sqrt(beta_i beta_j); P_0' = 0 and beta_0 = 0 take scale 1
        scale = np.sqrt(np.maximum(beta, 1.0))
        defect = np.abs(energy - np.diag(beta)) / np.outer(scale, scale)
        worst = max(worst, float(defect.max()))
    ok = worst <= 1e-12
    _emit(
        "criterion-08 energy-identity",
        ok,
        f"max |int (1 - x^2) P_i' P_j' dmu - beta_i delta_ij| / sqrt(beta_i beta_j) = {worst:.3e} "
        f"<= 1e-12 for i, j <= {m} at three weights",
    )


def test_criterion_09_band_decomposition(legendre_space, legendre_basis):
    space = legendre_space
    rng = np.random.default_rng(99)
    net = build_maximal_net(space, 0.2)
    finer = build_maximal_net(space, 0.1)
    polys = random_polynomials(legendre_basis, 20, legendre_basis.degree, rng)
    ok = True
    worst_parseval = 0.0
    worst_recon = 0.0
    for f in polys:
        decomp, reports = verify_band_decomposition(legendre_basis, net, f)
        by_id = {r.check_id: r for r in reports}
        worst_parseval = max(worst_parseval, by_id["band.parseval"].lhs)
        worst_recon = max(worst_recon, by_id["band.reconstruction"].lhs)
        ok = ok and by_id["band.parseval"].passed and by_id["band.reconstruction"].passed
        ok = ok and math.isfinite(decomp.frame_ratio)
    ratio_coarse = band_decompose(legendre_basis, net, polys[0]).frame_ratio
    ratio_fine = band_decompose(legendre_basis, finer, polys[0]).frame_ratio
    ok = ok and math.isfinite(ratio_coarse) and math.isfinite(ratio_fine)
    _emit(
        "criterion-09 band-decomposition",
        ok,
        f"worst Parseval gap {worst_parseval:.3e}, worst reconstruction gap "
        f"{worst_recon:.3e} (both <= 1e-10 scaled) over 20 draws; frame ratio "
        f"{ratio_coarse:.3f} at delta=0.2 vs {ratio_fine:.3f} at delta=0.1",
    )


def test_criterion_10_deterministic_verify():
    cmd = [
        sys.executable,
        "-m",
        "heatframe.cli",
        "verify",
        "--nodes",
        "48",
        "--degree",
        "30",
        "--seed",
        "5",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _emit(
        "criterion-10 deterministic-verify",
        ok,
        f"two runs, {len(first.stdout)} bytes each, byte-identical = "
        f"{first.stdout == second.stdout}",
    )

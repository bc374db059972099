"""The doubled-resolution basis of `verify` is built at the degree its fits read."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from heatframe import (
    JacobiParams,
    build_basis,
    fit_gaussian_bounds,
    verify_holder,
    verify_poincare,
)
from heatframe import cli, geometry, jacobi
from heatframe.cli import GAUSS_T_GRID, RunConfig
from heatframe.jacobi import POINCARE_DEGREE

CONFIG = RunConfig(gamma=1.5, alpha=-0.5, n_nodes=128, degree=102)
WEIGHT = JacobiParams(CONFIG.gamma, CONFIG.alpha)


@pytest.fixture(scope="module")
def refined():
    return cli._build(CONFIG, doubled=True)


@pytest.fixture(scope="module")
def full(refined):
    """The refinement's space at twice the configured degree, every row built."""
    return build_basis(refined.space, WEIGHT, min(2 * CONFIG.degree, refined.space.n - 1))


def test_every_built_basis_holds_one_row_per_eigenvalue(refined):
    base = cli._build(CONFIG)
    assert (base.space.n, base.degree) == (128, 102)
    live = int(np.count_nonzero(np.exp(-refined.eigenvalues * min(GAUSS_T_GRID))))
    assert (refined.space.n, refined.degree) == (256, max(POINCARE_DEGREE + 1, live) - 1) == (256, 121)
    for basis in (base, refined):
        assert basis.values.shape == (basis.eigenvalues.size, basis.space.n)


def test_refined_rows_are_the_leading_rows_of_the_full_table(refined, full):
    # The row norms come from one matrix-vector product, whose BLAS kernel
    # may group the last few rows differently for another row count; the
    # rows then differ in the last ulp.
    size = refined.size
    assert full.size > size
    scale = np.abs(full.values[:size]).max(axis=1, keepdims=True)
    assert np.all(np.abs(refined.values - full.values[:size]) <= 4e-16 * scale)
    assert np.array_equal(refined.eigenvalues, full.eigenvalues[:size])


def _without_degree(report):
    return dataclasses.replace(report, context=dict(report.context, degree=None))


def test_fits_on_the_refinement_match_the_full_table(refined, full):
    rng = np.random.default_rng(11)
    pairs = list(zip(*np.cos(rng.uniform(0.0, math.pi, (2, 150)))))
    step = math.sqrt(min(GAUSS_T_GRID))
    triples = []
    for _ in range(40):
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        th2p = min(max(th2 + rng.uniform(-1.0, 1.0) * step, 0.0), math.pi)
        triples.append((math.cos(th1), math.cos(th2), math.cos(th2p)))
    # every field to the bit, but the degree each basis reports
    gauss = [fit_gaussian_bounds(b, GAUSS_T_GRID, pairs) for b in (refined, full)]
    assert [r.context["degree"] for r in gauss] == [refined.degree, full.degree]
    assert _without_degree(gauss[0]) == _without_degree(gauss[1])
    rate = gauss[0].context["a"]
    holder = [verify_holder(b, GAUSS_T_GRID, triples, decay_rate=rate) for b in (refined, full)]
    assert _without_degree(holder[0]) == _without_degree(holder[1])
    balls = [(float(c), float(r)) for c, r in zip(rng.uniform(-0.9, 0.9, 12), rng.uniform(0.1, 1.0, 12))]
    poincare = [verify_poincare(b, WEIGHT, balls, np.random.default_rng(1)) for b in (refined, full)]
    assert poincare[0].passed and poincare[1].passed
    assert poincare[0].context["K_fit"] == pytest.approx(poincare[1].context["K_fit"], rel=1e-12)


def test_refinement_build_memory():
    # The refinement of 1024 nodes at degree 819 has 2048 nodes; its fits
    # read 122 rows, so it is built at degree 121.  Its table, Gram panels
    # and recurrence block come to about 6 MiB, against 25 MiB when the
    # Gram check covered all 1639 rows of degree 1638.
    config = RunConfig(n_nodes=1024, degree=819)
    geometry.make_jacobi_space.cache_clear()  # the 2048-node rule is built under the trace
    tracemalloc.start()
    try:
        basis = cli._build(config, doubled=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.degree == 121
    assert basis.values.shape == (122, 2048)
    assert peak < jacobi._BLOCK_BYTES

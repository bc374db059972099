"""The doubled-resolution basis of `verify` stores only the rows its fits read."""

import math
import tracemalloc

import numpy as np
import pytest

from heatframe import (
    ContractError,
    JacobiParams,
    build_basis,
    coefficients,
    factored_kernel,
    fit_gaussian_bounds,
    heat_kernel,
    random_polynomials,
    verify_holder,
    verify_poincare,
)
from heatframe import cli
from heatframe.cli import GAUSS_T_GRID, RunConfig
from heatframe.jacobi import POINCARE_DEGREE

CONFIG = RunConfig(gamma=1.5, alpha=-0.5, n_nodes=128, degree=102)
WEIGHT = JacobiParams(CONFIG.gamma, CONFIG.alpha)


@pytest.fixture(scope="module")
def lean():
    return cli._build(CONFIG, doubled=True)


@pytest.fixture(scope="module")
def full(lean):
    return build_basis(lean.space, WEIGHT, lean.degree)


def test_refinement_stores_fewer_rows_than_its_degree(lean):
    assert (lean.space.n, lean.degree) == (256, 204)
    live = int(np.count_nonzero(np.exp(-lean.eigenvalues * min(GAUSS_T_GRID))))
    stored = max(POINCARE_DEGREE + 1, live)
    assert stored < lean.size
    assert lean.values.shape == (stored, 256)
    assert lean.eigenvalues.shape == (lean.size,)


def test_stored_rows_are_the_leading_rows_of_the_full_table(lean, full):
    # The row norms come from one matrix-vector product, whose BLAS kernel
    # may group the last few rows differently for another row count; the
    # rows then differ in the last ulp.
    stored = lean.values.shape[0]
    scale = np.abs(full.values[:stored]).max(axis=1, keepdims=True)
    assert np.all(np.abs(lean.values - full.values[:stored]) <= 4e-16 * scale)
    assert np.array_equal(lean.eigenvalues, full.eigenvalues)


def test_fits_on_the_lean_refinement_match_the_full_table(lean, full):
    rng = np.random.default_rng(11)
    pairs = list(zip(*np.cos(rng.uniform(0.0, math.pi, (2, 150)))))
    step = math.sqrt(min(GAUSS_T_GRID))
    triples = []
    for _ in range(40):
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        th2p = min(max(th2 + rng.uniform(-1.0, 1.0) * step, 0.0), math.pi)
        triples.append((math.cos(th1), math.cos(th2), math.cos(th2p)))
    gauss = [fit_gaussian_bounds(b, GAUSS_T_GRID, pairs) for b in (lean, full)]
    assert gauss[0] == gauss[1]  # every field, to the bit
    rate = gauss[0].context["a"]
    holder = [verify_holder(b, GAUSS_T_GRID, triples, decay_rate=rate) for b in (lean, full)]
    assert holder[0] == holder[1]
    balls = [(float(c), float(r)) for c, r in zip(rng.uniform(-0.9, 0.9, 12), rng.uniform(0.1, 1.0, 12))]
    poincare = [verify_poincare(b, WEIGHT, balls, np.random.default_rng(1)) for b in (lean, full)]
    assert poincare[0].passed and poincare[1].passed
    assert poincare[0].context["K_fit"] == pytest.approx(poincare[1].context["K_fit"], rel=1e-12)


def test_reads_past_the_stored_rows_raise(lean):
    stored = lean.values.shape[0]
    factored_kernel(lean, min(GAUSS_T_GRID))
    with pytest.raises(ContractError):
        factored_kernel(lean, 0.5 * min(GAUSS_T_GRID))  # keeps more rows than are stored
    random_polynomials(lean, 2, stored - 1, np.random.default_rng(0))
    with pytest.raises(ContractError):
        random_polynomials(lean, 2, stored, np.random.default_rng(0))
    with pytest.raises(ContractError):
        coefficients(lean, np.ones(lean.space.n))
    with pytest.raises(ContractError):
        heat_kernel(lean, 1.0)


def test_refinement_build_memory():
    # The refinement of 1024 nodes at degree 819 has 2048 nodes and 1639
    # rows; storing both full tables took a 99 MiB peak.  Its fits read 122
    # rows, so the Gram matrix (21 MiB) and one recurrence block (8 MiB)
    # dominate: 40 MiB with the rule's build.
    config = RunConfig(n_nodes=1024, degree=819)
    tracemalloc.start()
    try:
        basis = cli._build(config, doubled=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.values.shape == (122, 2048)
    assert peak <= 48 * 2**20

"""Localization envelope: closed-form constants, hand oracles, inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_metric import distance_table
from heatframe import (
    DomainError,
    EnvelopeParams,
    EstimateConstants,
    MetricMeasureSpace,
    ball_volumes_at_nodes,
    constants_for,
    envelope,
    lp_norm,
    make_jacobi_space,
    verify_envelope_lp,
    verify_envelope_scaling,
    verify_lemma_integrals,
)

SPACE = make_jacobi_space(0.0, 0.0, 64)
NODES = np.arange(SPACE.n)


def test_printed_constants_at_small_exponents():
    # a1 = (2^-k - 2^-sigma)^-1: at k=1, sigma=2 this is exactly 4.
    assert EstimateConstants(k=1, sigma_exp=2.0).a1 == 4.0
    # a2 = 2^(sigma+k+1) / (2^-k - 2^(k-sigma)): at k=1, sigma=3 exactly 128.
    assert EstimateConstants(k=1, sigma_exp=3.0).a2 == 128.0
    # a_p(2) = (2^(kp/2) / (2^-k - 2^-(sigma-k/2)p))^(1/p): k=1, sigma=3
    # gives sqrt(2 / (1/2 - 1/32)) = sqrt(64/15).
    assert EstimateConstants(k=1, sigma_exp=3.0).a_p(2.0) == pytest.approx(
        math.sqrt(64.0 / 15.0), rel=1e-15
    )
    # The limit exponent collapses to 2^(k/2).
    assert EstimateConstants(k=1, sigma_exp=3.0).a_p(math.inf) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_constants_reject_out_of_range_exponents():
    with pytest.raises(DomainError):
        EstimateConstants(k=1, sigma_exp=1.0).a1
    with pytest.raises(DomainError):
        EstimateConstants(k=1, sigma_exp=2.0).a2
    with pytest.raises(DomainError):
        EstimateConstants(k=1, sigma_exp=1.4).a_p(1.0)


def test_a_p_is_nonincreasing_in_p():
    for k, sigma in ((1, 3.0), (2, 5.0)):
        consts = EstimateConstants(k=k, sigma_exp=sigma)
        grid = [1.0, 1.5, 2.0, 4.0, 8.0, math.inf]
        vals = [consts.a_p(p) for p in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_envelope_hand_value_on_tiny_space():
    tiny = MetricMeasureSpace(points=np.array([-1.0, 0.0, 1.0]), weights=np.ones(3))
    params = EnvelopeParams(delta=1.0, sigma_exp=2.0, k=1)
    # Neighbours sit pi/2 apart, so open unit balls at the endpoints hold
    # only their own unit mass, and the distance between them is pi:
    # E = (1*1)^(-1/2) * (1 + pi)^-2.
    assert envelope(tiny, params, 0, 2) == pytest.approx((1.0 + math.pi) ** -2, rel=1e-15)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(i=st.integers(0, 63), j=st.integers(0, 63))
def test_envelope_is_symmetric(i, j):
    params = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)
    assert envelope(SPACE, params, i, j) == envelope(SPACE, params, j, i)


def test_envelope_matrix_matches_pointwise():
    params = EnvelopeParams(delta=0.3, sigma_exp=5.0, k=2)
    mat = envelope(SPACE, params, NODES[:, None], NODES[None, :])
    for i in (0, 17, 40, 63):
        for j in (5, 31, 63):
            assert mat[i, j] == pytest.approx(envelope(SPACE, params, i, j), rel=1e-14)
    assert np.abs(mat - mat.T).max() == 0.0


@pytest.mark.parametrize("gamma, alpha", [(0.0, 0.0), (3.0, -0.5)])
def test_envelope_matrix_is_bitwise_the_dense_table_expression(gamma, alpha):
    # dominated_operator fits its certificate on this matrix, so the young
    # and schur constants move with any change to it
    space = make_jacobi_space(gamma, alpha, 96)
    params = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)
    vols = ball_volumes_at_nodes(space, params.delta)
    scale = (vols[:, None] * vols[None, :]) ** -0.5
    dense = scale * (1.0 + distance_table(space) / params.delta) ** -params.sigma_exp
    nodes = np.arange(space.n)
    assert np.array_equal(envelope(space, params, nodes[:, None], nodes[None, :]), dense)


def test_lp_norm_reports_pass():
    params = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)
    nodes = np.linspace(0, SPACE.n - 1, 13).astype(int)
    for p in (1.0, 2.0, 4.0, math.inf):
        reports = verify_envelope_lp(SPACE, params, p, nodes)
        assert len(reports) == 13
        assert all(r.passed for r in reports)
        assert all(r.paper_constant == constants_for(params).a_p(p) for r in reports)


def test_lp_norm_definition_matches_direct_sum():
    params = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)
    s1 = 40
    row = np.array([envelope(SPACE, params, s1, s2) for s2 in NODES])
    direct = float((SPACE.weights @ row**2) ** 0.5)
    assert lp_norm(SPACE.weights, envelope(SPACE, params, s1, NODES), 2.0) == pytest.approx(direct, rel=1e-13)


def test_scaling_reports_pass_both_directions():
    params = EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2)
    rng = np.random.default_rng(5)
    pairs = [tuple(rng.integers(0, SPACE.n, size=2)) for _ in range(50)]
    for beta in (0.5, 2.0):
        reports = verify_envelope_scaling(SPACE, params, beta, pairs)
        assert all(r.passed for r in reports)
        ids = {r.check_id for r in reports}
        assert "envelope.one_volume" in ids
        assert ("envelope.shrink" if beta < 1 else "envelope.grow") in ids


def test_lemma_integrals_pass_and_skip_by_hypothesis():
    rng = np.random.default_rng(9)
    pairs = [tuple(rng.integers(0, SPACE.n, size=2)) for _ in range(50)]
    full = verify_lemma_integrals(
        SPACE, EnvelopeParams(delta=0.2, sigma_exp=5.0, k=2), pairs
    )
    assert all(r.passed for r in full)
    assert {r.check_id for r in full} == {
        "lemma.decay_integral",
        "lemma.product_pair_volume",
        "lemma.product_one_volume",
        "lemma.product_flat",
        "lemma.weighted_product",
        "envelope.self_reproduction",
    }
    narrow = verify_lemma_integrals(
        SPACE, EnvelopeParams(delta=0.2, sigma_exp=2.5, k=2), pairs[:10]
    )
    ids = {r.check_id for r in narrow}
    assert "lemma.weighted_product" not in ids  # needs sigma > 2k
    assert "envelope.self_reproduction" not in ids
    assert "lemma.decay_integral" in ids  # needs only sigma > k
    assert all(r.passed for r in narrow)


def test_envelope_params_validation():
    with pytest.raises(DomainError):
        EnvelopeParams(delta=0.0, sigma_exp=5.0, k=2)
    with pytest.raises(DomainError):
        EnvelopeParams(delta=0.2, sigma_exp=-1.0, k=2)
    with pytest.raises(DomainError):
        EnvelopeParams(delta=0.2, sigma_exp=5.0, k=0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censlasso.errors import DegenerateSample
from censlasso.losses import (
    LossKind,
    check_loss,
    estimate_expectile_index,
    estimate_quantile_index,
    expectile_grad,
    expectile_loss,
)

from helpers import gumbel_expectile_index

taus = st.floats(0.01, 0.99)
finite = st.floats(-50, 50, allow_nan=False)


# --- check loss -------------------------------------------------------------

def test_check_loss_zero_residual():
    assert check_loss(0.3, 0.0) == 0.0


def test_check_loss_direct_values():
    assert check_loss(0.3, -2.0) == pytest.approx(1.4)
    assert check_loss(0.5, 1.0) == pytest.approx(0.5)
    assert check_loss(0.5, -1.0) == pytest.approx(0.5)


@settings(max_examples=200, deadline=None)
@given(taus, finite)
def test_check_loss_nonnegative_zero_iff_zero(tau, u):
    val = check_loss(tau, u)
    assert val >= 0.0
    if abs(u) > 1e-200:  # below that, u * tau can underflow to exactly 0
        assert val > 0.0


@settings(max_examples=200, deadline=None)
@given(taus, finite.filter(lambda u: u != 0.0))
def test_check_loss_reflection_identity(tau, u):
    # rho_tau(u) + rho_tau(-u) = |u|
    assert check_loss(tau, u) + check_loss(tau, -u) == pytest.approx(abs(u))


@settings(max_examples=200, deadline=None)
@given(taus, finite, finite)
def test_check_loss_midpoint_convexity(tau, u, v):
    mid = check_loss(tau, (u + v) / 2.0)
    assert mid <= (check_loss(tau, u) + check_loss(tau, v)) / 2.0 + 1e-12


# --- expectile loss ---------------------------------------------------------

def test_expectile_half_is_least_squares():
    u = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    assert np.allclose(expectile_loss(0.5, u), u * u / 2.0)
    assert np.allclose(expectile_grad(0.5, u), -u)


def test_expectile_grad_sign_convention():
    assert expectile_grad(0.3, 2.0) == pytest.approx(-1.2)
    assert expectile_grad(0.3, -2.0) == pytest.approx(2.8)


def test_expectile_grad_matches_finite_difference():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(300):
        tau = rng.uniform(0.05, 0.95)
        u = rng.uniform(-8, 8)
        if abs(u) < 1e-2:
            continue  # kink at zero breaks the quadratic Taylor bound
        fd = (expectile_loss(tau, u - h) - expectile_loss(tau, u + h)) / (2 * h)
        assert fd == pytest.approx(expectile_grad(tau, u), rel=1e-6, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(taus, finite)
def test_expectile_grad_opposes_residual(tau, u):
    g = expectile_grad(tau, u)
    assert u * g <= 0.0
    assert expectile_grad(tau, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(taus, finite, finite)
def test_expectile_midpoint_convexity(tau, u, v):
    mid = expectile_loss(tau, (u + v) / 2.0)
    bound = (expectile_loss(tau, u) + expectile_loss(tau, v)) / 2.0
    assert mid <= bound + 1e-9 * (1.0 + bound)


# --- index estimators -------------------------------------------------------

def test_expectile_index_symmetric_pair():
    assert estimate_expectile_index([-1.0, 1.0]) == pytest.approx(0.5)


def test_expectile_index_direct_formula():
    assert estimate_expectile_index([-2.0, 1.0]) == pytest.approx(2.0 / 3.0)


def test_expectile_index_requires_both_signs():
    with pytest.raises(DegenerateSample):
        estimate_expectile_index([1.0, 2.0])
    with pytest.raises(DegenerateSample):
        estimate_expectile_index([-1.0, -2.0])


def test_expectile_index_gumbel_matches_quadrature():
    rng = np.random.default_rng(123)
    draws = rng.gumbel(size=1_000_000)
    tau_star = gumbel_expectile_index()
    assert estimate_expectile_index(draws) == pytest.approx(tau_star, abs=1e-2)


def test_quantile_index_symmetric_pair():
    assert estimate_quantile_index([-1.0, 1.0]) == pytest.approx(0.5)


def test_quantile_index_all_negative():
    assert estimate_quantile_index([-1.0, -5.0]) == 1.0


def test_quantile_index_gumbel_matches_cdf_at_zero():
    rng = np.random.default_rng(456)
    draws = rng.gumbel(size=1_000_000)
    assert estimate_quantile_index(draws) == pytest.approx(np.exp(-1.0), abs=1e-2)


# --- LossKind ---------------------------------------------------------------

def test_loss_kind_composite_levels():
    kind = LossKind("composite_quantile", n_levels=4)
    assert np.allclose(kind.taus, [0.2, 0.4, 0.6, 0.8])


def test_loss_kind_least_squares_alias():
    kind = LossKind("least_squares")
    assert kind.family == "expectile"
    assert kind.tau == 0.5
    assert kind.label() == "least_squares"


def test_loss_kind_validation():
    with pytest.raises(ValueError):
        LossKind("quantile", tau=0.0)
    with pytest.raises(ValueError):
        LossKind("expectile", tau=1.0)
    with pytest.raises(ValueError):
        LossKind("quantile")
    with pytest.raises(ValueError):
        LossKind("median", tau=0.5)
    with pytest.raises(ValueError):
        LossKind("composite_quantile", n_levels=0)
    with pytest.raises(ValueError):
        LossKind("warp")


def test_loss_kind_lp_family_flag():
    assert LossKind("median").is_lp_family
    assert LossKind("quantile", tau=0.4).is_lp_family
    assert LossKind("composite_quantile", n_levels=3).is_lp_family
    assert not LossKind("expectile", tau=0.4).is_lp_family

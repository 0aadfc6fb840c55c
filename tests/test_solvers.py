from dataclasses import replace

import numpy as np
import pytest

import censlasso.solvers as solvers
from censlasso.data import GenerationSpec, generate_dataset
from censlasso.errors import DegenerateWeights, DimensionMismatch, NoConvergence
from censlasso.kaplan_meier import IpcwWeights, fit_censoring_km, ipcw_weights
from censlasso.losses import LossKind
from censlasso.solvers import (
    FitConfig,
    adaptive_weights,
    fit_adaptive_lasso,
    fit_unpenalized,
    kkt_residual,
    objective_value,
)

from helpers import (
    check_objective_on_grid,
    make_weights,
    naive_objective,
    small_dataset,
    weighted_median_interval,
)


def random_problem(seed, n=120, p=4, censor_bound=8.0, beta=None):
    if beta is None:
        beta = (1.0, -2.0) + (0.0,) * (p - 2)
    spec = GenerationSpec(n=n, p=p, beta0=beta, seed=seed)
    ds = generate_dataset(spec, bound=censor_bound)
    curve = fit_censoring_km(ds)
    return ds, ipcw_weights(ds, curve)


# --- unpenalized fits -------------------------------------------------------

def test_median_intercept_only_is_weighted_median():
    # odd count, unit weights: the weighted median is unique
    y = np.exp([0.3, -0.5, 1.2, 0.8, 2.0])
    ds = small_dataset(y, [1] * 5, np.ones((5, 1)))
    w = make_weights(np.ones(5))
    res = fit_unpenalized(ds, w, LossKind("median"))
    assert res.beta[0] == pytest.approx(np.median(np.log(y)), abs=1e-9)


def test_median_intercept_only_even_count_lands_in_optimal_interval():
    y = np.exp([0.1, 0.4, 1.0, 1.8])
    ds = small_dataset(y, [1] * 4, np.ones((4, 1)))
    w = make_weights(np.ones(4))
    res = fit_unpenalized(ds, w, LossKind("median"))
    lo, hi = weighted_median_interval(np.log(y), np.ones(4))
    assert lo - 1e-9 <= res.beta[0] <= hi + 1e-9
    best = np.abs(np.log(y) - lo).sum()
    assert res.objective == pytest.approx(best, abs=1e-9)


def test_least_squares_matches_normal_equations():
    ds, w = random_problem(5, n=200, p=5)
    sw = np.sqrt(w.w)
    z = np.log(ds.y)
    for fit_intercept in (False, True):
        cfg = FitConfig(loss=LossKind("least_squares"), tol=1e-12, fit_intercept=fit_intercept)
        res = fit_unpenalized(ds, w, config=cfg)
        cols = np.column_stack([np.ones(ds.n), ds.x]) if fit_intercept else ds.x
        oracle, *_ = np.linalg.lstsq(cols * sw[:, None], z * sw, rcond=None)
        assert np.allclose(np.concatenate([res.intercepts, res.beta]), oracle, atol=1e-8)


def test_composite_j1_equals_median_with_free_intercept():
    ds, w = random_problem(11, n=150, p=3, beta=(1.0, -1.5, 0.0))
    comp = fit_unpenalized(ds, w, LossKind("composite_quantile", n_levels=1))
    med = fit_unpenalized(
        ds, w, LossKind("median"), FitConfig(loss=LossKind("median"), fit_intercept=True)
    )
    assert np.allclose(comp.beta, med.beta, atol=1e-6)
    assert comp.intercepts[0] == pytest.approx(med.intercepts[0], abs=1e-6)


def test_expectile_unpenalized_kkt():
    for seed in range(4):
        ds, w = random_problem(seed, n=150, p=4)
        loss = LossKind("expectile", tau=0.35)
        res = fit_unpenalized(ds, w, loss, FitConfig(loss=loss, tol=1e-10))
        assert res.converged
        resid = kkt_residual(ds, w, loss, 0.0, np.zeros(ds.p), res)
        assert resid <= 1e-6 * ds.n


def test_expectile_out_of_iterations_raises():
    ds, w = random_problem(15, n=150, p=4)
    loss = LossKind("expectile", tau=0.3)
    with pytest.raises(NoConvergence):
        fit_unpenalized(ds, w, loss, FitConfig(loss=loss, max_iter=1))


def test_lp_stopped_short_raises(monkeypatch):
    real = solvers.linprog

    def stopped(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status = 1  # HiGHS: iteration limit reached
        return res

    monkeypatch.setattr(solvers, "linprog", stopped)
    ds, w = random_problem(16, n=60, p=3)
    with pytest.raises(NoConvergence):
        fit_unpenalized(ds, w, LossKind("median"))


# --- adaptive lasso ---------------------------------------------------------

@pytest.mark.parametrize("loss", [
    LossKind("quantile", tau=0.4),
    LossKind("expectile", tau=0.4),
    LossKind("median"),
])
def test_lambda_zero_equals_unpenalized(loss):
    ds, w = random_problem(2, n=100, p=3, beta=(1.0, -1.0, 0.5))
    cfg = FitConfig(loss=loss, lam=0.0, tol=1e-10)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
    assert np.allclose(res.beta, pilot.beta, atol=1e-7)


@pytest.mark.parametrize("loss", [
    LossKind("quantile", tau=0.4),
    LossKind("expectile", tau=0.4),
    LossKind("median"),
    LossKind("composite_quantile", n_levels=3),
])
def test_huge_lambda_zeroes_everything(loss):
    ds, w = random_problem(3, n=80, p=4)
    cfg = FitConfig(loss=loss, lam=1e8)
    pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
    res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
    assert np.all(res.beta == 0.0)
    assert res.support == frozenset()


def test_exact_zero_semantics_and_full_generic_support():
    ds, w = random_problem(4, n=200, p=5)
    loss = LossKind("expectile", tau=0.3)
    cfg = FitConfig(loss=loss, lam=0.0)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    assert pilot.support == frozenset(range(5))
    lasso = fit_adaptive_lasso(ds, w, cfg.replace(lam=200.0 ** 0.45), pilot.beta)
    zeros = np.flatnonzero(lasso.beta == 0.0)
    assert len(zeros) >= 2  # noise coordinates shrunk to exact zero


def test_quantile_lasso_beats_exhaustive_grid():
    rng = np.random.default_rng(99)
    for trial in range(5):
        n, p = 30, 3
        x = rng.normal(1.0, 1.0, (n, p))
        beta_true = np.array([1.0, -2.0, 0.0])
        z = x @ beta_true + rng.gumbel(size=n)
        ds = small_dataset(np.exp(z), np.ones(n, dtype=int), x)
        w = make_weights(rng.uniform(0.5, 2.0, n))
        loss = LossKind("quantile", tau=0.4)
        cfg = FitConfig(loss=loss, lam=n ** 0.4)
        pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
        res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
        omega = adaptive_weights(pilot.beta)
        lam_w = cfg.lam * omega
        grid_min = check_objective_on_grid(x, z, w.w, 0.4, lam_w)
        assert res.objective <= grid_min + 1e-3


def test_expectile_lasso_kkt_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(6):
        ds, w = random_problem(trial + 40, n=90, p=4)
        tau = rng.uniform(0.2, 0.8)
        loss = LossKind("expectile", tau=tau)
        cfg = FitConfig(loss=loss, lam=90 ** 0.4, fit_intercept=bool(trial % 2))
        pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
        res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
        assert len(res.intercepts) == trial % 2
        omega = adaptive_weights(pilot.beta)
        assert kkt_residual(ds, w, loss, cfg.lam, omega, res) <= 1e-6 * ds.n


def test_lp_duality_gap_small():
    ds, w = random_problem(8, n=150, p=4)
    for loss in [LossKind("median"), LossKind("quantile", tau=0.3),
                 LossKind("composite_quantile", n_levels=2)]:
        cfg = FitConfig(loss=loss, lam=150 ** 0.4)
        pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
        res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
        assert res.duality_gap is not None
        assert res.duality_gap <= 1e-6 * ds.n


@pytest.mark.parametrize("loss, fit_intercept", [
    (LossKind("median"), False),
    (LossKind("quantile", tau=0.3), False),
    (LossKind("quantile", tau=0.3), True),
    (LossKind("composite_quantile", n_levels=3), False),
], ids=["median", "quantile", "quantile-intercept", "composite"])
def test_lp_fits_kkt_certificate(loss, fit_intercept):
    for seed in range(60, 66):
        ds, w = random_problem(seed, n=150)
        cfg = FitConfig(loss=loss, lam=150 ** 0.4, fit_intercept=fit_intercept)
        pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
        res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
        omega = adaptive_weights(pilot.beta)
        for fit, lam, om in ((pilot, 0.0, np.zeros(ds.p)), (res, cfg.lam, omega)):
            assert kkt_residual(ds, w, loss, lam, om, fit) <= 1e-9 * ds.n
            moved = replace(fit, beta=fit.beta + 0.05 * np.eye(ds.p)[0])
            assert kkt_residual(ds, w, loss, lam, om, moved) > 1.0
            if len(fit.intercepts):
                # each level's intercept answers for its own level only
                shift = np.zeros(len(fit.intercepts))
                shift[-1] = 0.05
                moved = replace(fit, intercepts=fit.intercepts + shift)
                assert kkt_residual(ds, w, loss, lam, om, moved) > 0.05


def test_permutation_invariance():
    ds, w = random_problem(12, n=120, p=3)
    perm = np.random.default_rng(0).permutation(ds.n)
    ds_p = ds.subset(perm)
    w_p = IpcwWeights(w=w.w[perm], floor_used=w.floor_used)
    for loss in [LossKind("quantile", tau=0.4), LossKind("expectile", tau=0.4)]:
        cfg = FitConfig(loss=loss, lam=120 ** 0.4, tol=1e-10)
        a = fit_adaptive_lasso(ds, w, cfg, fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0)).beta)
        b = fit_adaptive_lasso(ds_p, w_p, cfg, fit_unpenalized(ds_p, w_p, loss, cfg.replace(lam=0.0)).beta)
        assert np.allclose(a.beta, b.beta, atol=1e-6)


def test_degenerate_weights_raises():
    ds = small_dataset([1.0, 2.0], [1, 1], np.ones((2, 1)))
    zero_w = IpcwWeights(w=np.zeros(2), floor_used=0.5)
    with pytest.raises(DegenerateWeights):
        fit_unpenalized(ds, zero_w, LossKind("median"))


def test_adaptive_weights_floor():
    om = adaptive_weights([2.0, 0.0, -0.5], gamma=1.0, beta_floor=1e-10)
    assert om[0] == pytest.approx(0.5)
    assert om[1] == pytest.approx(1e10)
    assert om[2] == pytest.approx(2.0)
    om2 = adaptive_weights([2.0], gamma=2.0)
    assert om2[0] == pytest.approx(0.25)


# --- objective value --------------------------------------------------------

def test_objective_value_zero_beta_is_pure_loss():
    ds, w = random_problem(6, n=50, p=3)
    loss = LossKind("quantile", tau=0.3)
    val = objective_value(ds, w, loss, 123.0, np.ones(3), np.zeros(3))
    z = np.log(ds.y)
    expected = float(w.w @ (z * (0.3 - (z <= 0))))
    assert val == pytest.approx(expected, abs=1e-12)


def test_objective_value_perfect_fit_is_penalty_only():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    beta = np.array([0.5, -0.25])
    y = np.exp(x @ beta)
    ds = small_dataset(y, [1, 1, 1], x)
    w = make_weights(np.ones(3))
    omega = np.array([2.0, 4.0])
    lam = 3.0
    val = objective_value(ds, w, LossKind("median"), lam, omega, beta)
    assert val == pytest.approx(lam * (2.0 * 0.5 + 4.0 * 0.25), abs=1e-12)


@pytest.mark.parametrize("loss", [
    LossKind("median"),
    LossKind("quantile", tau=0.25),
    LossKind("expectile", tau=0.7),
    LossKind("composite_quantile", n_levels=3),
])
def test_objective_value_matches_naive_loop(loss):
    rng = np.random.default_rng(77)
    ds, w = random_problem(7, n=40, p=3)
    beta = rng.normal(size=3)
    intercepts = (
        rng.normal(size=3) if loss.family == "composite_quantile" else ()
    )
    omega = rng.uniform(0.5, 3.0, size=3)
    mine = objective_value(ds, w, loss, 2.5, omega, beta, intercepts)
    oracle = naive_objective(ds, w, loss, 2.5, omega, beta, intercepts)
    assert mine == pytest.approx(oracle, abs=1e-12 * max(1.0, abs(oracle)))


def test_objective_value_dimension_mismatch():
    ds, w = random_problem(9, n=30, p=3)
    with pytest.raises(DimensionMismatch):
        objective_value(ds, w, LossKind("median"), 1.0, np.ones(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        objective_value(ds, w, LossKind("median"), 1.0, np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        objective_value(
            ds, w, LossKind("composite_quantile", n_levels=2), 1.0,
            np.ones(3), np.ones(3), intercepts=(0.0,),
        )


def test_result_serialization_roundtrip():
    import json

    ds, w = random_problem(10, n=60, p=3)
    loss = LossKind("quantile", tau=0.4)
    cfg = FitConfig(loss=loss, lam=60 ** 0.4)
    pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
    res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
    payload = json.loads(json.dumps(res.to_dict()))
    assert payload["support"] == sorted(res.support)
    assert payload["converged"] is True
    assert len(payload["beta"]) == 3

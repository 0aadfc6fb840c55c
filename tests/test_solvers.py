import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censlasso.data import GenerationSpec, generate_dataset
from censlasso.errors import (
    CensLassoError,
    DegenerateWeights,
    DimensionMismatch,
    NoConvergence,
)
from censlasso.kaplan_meier import IpcwWeights, fit_censoring_km, ipcw_weights
from censlasso import solvers
from censlasso.losses import LossKind
from censlasso.solvers import (
    EstimatorResult,
    FitConfig,
    adaptive_weights,
    fit_adaptive_lasso,
    fit_unpenalized,
    kkt_residual,
    objective_value,
)
from censlasso.tuning import lambda_grid

from helpers import (
    check_loss_levels,
    check_loss_primal_lp,
    check_objective_on_grid,
    clip_boxes,
    clipped_rows,
    make_weights,
    naive_objective,
    padded_rows,
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


def degenerate_case(seed, degeneracy):
    """random_problem(seed, n=150, p=5) with tied responses (on a 0.25 grid
    in log scale, covariates on a 0.5 grid) or with every third row twice."""
    ds, w = random_problem(seed, n=150, p=5)
    if degeneracy == "tied-responses":
        z = np.round(np.log(ds.y) * 4.0) / 4.0
        return small_dataset(np.exp(z), ds.delta, np.round(ds.x * 2.0) / 2.0), w
    rows = np.r_[0:ds.n, 0:ds.n:3]
    return ds.subset(rows), make_weights(w.w[rows])


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


def test_lp_stopped_short_raises():
    # one interior-point step cannot close the gap: max_iter bounds the LP route
    ds, w = random_problem(16, n=60, p=3)
    loss = LossKind("median")
    with pytest.raises(NoConvergence):
        fit_unpenalized(ds, w, loss, FitConfig(loss=loss, max_iter=1))


# --- LP route against HiGHS on the primal LP --------------------------------

LP_LOSSES = [LossKind("median"), LossKind("quantile", tau=0.3),
             LossKind("quantile", tau=0.7), LossKind("composite_quantile", n_levels=3)]
LP_LOSS_IDS = ["median", "quantile0.3", "quantile0.7", "composite3"]


def assert_matches_primal_lp(ds, w, loss, fit_intercept):
    """Pilot, lam = n^0.4 and an all-zero fit against `check_loss_primal_lp`:
    objective within 1e-9 relative, identical supports."""
    keep = w.w > 0.0
    x, z, ww = ds.x[keep], np.log(ds.y[keep]), w.w[keep]
    levels = check_loss_levels(loss)
    intercepts = fit_intercept or loss.family == "composite_quantile"
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    omega = adaptive_weights(pilot.beta)
    # at beta = 0 the intercept-only fit's duals a certify beta = 0 for
    # every lam with lam omega_j >= |x_j'a|; 1.5 times that leaves no tie
    *_, duals = check_loss_primal_lp(x[:, :0], z, ww, levels, intercepts, np.zeros(0))
    pull = np.abs(np.tile(x, (len(levels), 1)).T @ duals)
    lam_zero = 1.5 * float(np.max(pull / omega))
    fits = [(pilot, 0.0)]
    for lam in (ds.n ** 0.4, lam_zero):
        fits.append((fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), pilot.beta), lam))
    for res, lam in fits:
        beta, b, _ = check_loss_primal_lp(x, z, ww, levels, intercepts, lam * omega)
        best = naive_objective(ds, w, loss, lam, omega, beta, b)
        assert abs(res.objective - best) <= 1e-9 * max(1.0, best), (lam, res.objective, best)
        assert res.support == frozenset(np.flatnonzero(beta).tolist()), lam
        assert len(res.intercepts) == len(b)
    assert fits[-1][0].support == frozenset()


@pytest.mark.parametrize("n", [60, 150, 400])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_fits_match_primal_lp_oracle(loss, fit_intercept, n):
    for seed in range(10):
        ds, w = random_problem(seed, n=n, p=5)
        assert_matches_primal_lp(ds, w, loss, fit_intercept)


@pytest.mark.parametrize("degeneracy", ["tied-responses", "duplicated-rows"])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_fits_match_primal_lp_oracle_degenerate(loss, fit_intercept, degeneracy):
    for seed in range(10):
        ds, w = degenerate_case(seed, degeneracy)
        assert_matches_primal_lp(ds, w, loss, fit_intercept)


@pytest.mark.parametrize("dependency", ["duplicated", "constant", "combination"])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_fits_rank_deficient_design(loss, fit_intercept, dependency):
    # a last column that depends on the others (a constant one only does
    # beside intercepts) has no unique vertex: the pilot must leave it at 0,
    # and every fit must reach the oracle's objective with a zero KKT residual
    intercepts = fit_intercept or loss.family == "composite_quantile"
    dependent = dependency != "constant" or intercepts
    for seed in range(5):
        ds, w = random_problem(seed, n=150, p=4)
        extra = {"duplicated": ds.x[:, 1], "constant": np.full(ds.n, 3.0),
                 "combination": ds.x[:, 0] - 2.0 * ds.x[:, 2]}[dependency]
        ds = small_dataset(ds.y, ds.delta, np.column_stack([ds.x, extra]))
        keep = w.w > 0.0
        x, z, ww = ds.x[keep], np.log(ds.y[keep]), w.w[keep]
        cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
        pilot = fit_unpenalized(ds, w, loss, cfg)
        assert pilot.beta[-1] == 0.0 or not dependent
        fits = [(pilot, 0.0, np.zeros(ds.p))]
        # from the pilot, and with unit adaptive weights, so that penalized
        # columns depend on each other
        for lam, beta_tilde in ((ds.n ** 0.4, pilot.beta), (3.0, np.ones(ds.p))):
            res = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), beta_tilde)
            fits.append((res, lam, adaptive_weights(beta_tilde)))
        for res, lam, omega in fits:
            beta, b, _ = check_loss_primal_lp(x, z, ww, check_loss_levels(loss), intercepts,
                                              lam * omega)
            best = naive_objective(ds, w, loss, lam, omega, beta, b)
            assert abs(res.objective - best) <= 1e-9 * max(1.0, best), (lam, res.objective, best)
            assert res.kkt_residual <= 1e-9 * ds.n


def test_lp_screening_bound_is_tight():
    # x = 1 and every response positive: at beta = 0 every dual sits at its
    # upper end, so |x'a| equals the screening bound sum_i w_i max(tau, 1 - tau)
    # and a penalty just below it must keep the coefficient
    rng = np.random.default_rng(5)
    n, tau = 40, 0.7
    z, wts = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    ds, w = small_dataset(np.exp(z), np.ones(n, dtype=int), np.ones((n, 1))), make_weights(wts)
    bound = tau * wts.sum()
    for lam, kept in ((0.9 * bound, True), (1.1 * bound, False)):
        cfg = FitConfig(loss=LossKind("quantile", tau=tau), lam=lam)
        res = fit_adaptive_lasso(ds, w, cfg, [1.0])  # adaptive weight 1
        beta, _, _ = check_loss_primal_lp(ds.x, z, wts, [(tau, 1.0)], False, np.array([lam]))
        assert res.support == frozenset(np.flatnonzero(beta).tolist()) == (
            frozenset({0}) if kept else frozenset())
        best = naive_objective(ds, w, cfg.loss, lam, np.ones(1), beta)
        assert abs(res.objective - best) <= 1e-9 * best


def test_dual_rows_products_are_the_dense_ones(monkeypatch):
    # the kernel on a stack's kept columns against the dense M its docstring
    # defines: observation rows (x_i[cols], e_k) per level k, then a
    # pseudo-row e_j per penalized coordinate.  Composite quantile (J = 3)
    # with intercepts, column 1 dropped, coordinate 2 unpenalized, and row
    # blocks of a few rows so `normal` sums over several of them
    monkeypatch.setattr(solvers, "_BLOCK", 16)
    rng = np.random.default_rng(3)
    n, cols = 11, np.array([0, 2, 3, 4])
    x, z, w = rng.normal(size=(n, 5)), rng.normal(size=n), rng.uniform(0.5, 2.0, n)
    levels = solvers.loss_levels(LossKind("composite_quantile", n_levels=3))
    lam_w = np.array([[0.5, 1.5, 0.0, 2.0], [0.7, 0.2, 0.0, 3.0]])
    lp = solvers._DualRows(x.take(cols, axis=1), z, w, levels, True, lam_w)
    pen = np.array([0, 1, 3])
    obs = np.hstack([np.tile(x[:, cols], (3, 1)), np.repeat(np.eye(3), n, axis=0)])
    dense = np.vstack([obs, np.eye(7)[pen]])
    assert (lp.p, lp.m, lp.n_obs) == (4, 7, 3 * n)
    assert np.array_equal(lp.pen, pen)
    assert np.array_equal(lp.resp, np.r_[np.tile(z, 3), np.zeros(3)])
    for k, level in enumerate(levels):
        rows = slice(k * n, (k + 1) * n)
        assert np.array_equal(lp.lo[:, rows], np.tile(-(1.0 - level.tau) * w, (2, 1)))
        assert np.array_equal(lp.hi[:, rows], np.tile(level.tau * w, (2, 1)))
    assert np.array_equal(lp.hi[:, 3 * n:], lam_w[:, pen])
    assert np.array_equal(lp.lo[:, 3 * n:], -lam_w[:, pen])
    theta, v = rng.normal(size=(2, 7)), rng.normal(size=(2, len(dense)))
    q = rng.uniform(0.1, 3.0, size=(2, len(dense)))
    np.testing.assert_allclose(lp.fitted(theta), theta @ dense.T, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(lp.fitted(theta[0]), dense @ theta[0], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(lp.adjoint(v), v @ dense, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(lp.normal(q), [dense.T @ (qb[:, None] * dense) for qb in q],
                               rtol=1e-13, atol=1e-13)
    at = np.array([[0, n + 4, 2 * n + 10, 3 * n], [3 * n + 2, 5, 3 * n + 1, 2 * n]])
    assert np.array_equal(lp.design(at), dense[at])
    assert np.array_equal(lp.col_reach, np.r_[np.abs(x[:, cols]).max(axis=0), np.ones(3)])

    # the same two problems on rows of their own, 11 and 7 of them, the
    # second padded with 4 zero rows (w = 0): each problem's products are
    # those of its own dense M, whose padded rows are zero (intercept
    # columns included), and whatever sits on the padding adds exactly 0
    lengths = (n, 7)
    own = [(rng.normal(size=(k, 4)), rng.normal(size=k), rng.uniform(0.5, 2.0, k))
           for k in lengths]
    lp = solvers._DualRows(*padded_rows(own), levels, True, lam_w)
    real = np.arange(n)[None, :] < np.array(lengths)[:, None]
    denses = []
    for (xb, _, _), mask in zip(own, real):
        xpad = np.zeros((n, 4))
        xpad[mask] = xb
        ones = np.repeat(np.eye(3), n, axis=0) * np.tile(mask, 3)[:, None]
        obs = np.hstack([np.tile(xpad, (3, 1)), ones])
        denses.append(np.vstack([obs, np.eye(7)[pen]]))
    assert (lp.p, lp.m, lp.n_obs) == (4, 7, 3 * n)
    assert np.array_equal(lp.real, np.hstack([np.tile(real, 3), np.ones((2, 3))]))
    for b, ((xb, zb, wb), dense_b) in enumerate(zip(own, denses)):
        k = len(zb)
        zpad = np.r_[zb, np.zeros(n - k)]
        assert np.array_equal(lp.resp[b], np.r_[np.tile(zpad, 3), np.zeros(3)])
        for j, level in enumerate(levels):
            rows = slice(j * n, j * n + k)
            assert np.array_equal(lp.lo[b, rows], -(1.0 - level.tau) * wb)
            assert np.array_equal(lp.hi[b, rows], level.tau * wb)
            assert np.all(lp.lo[b, j * n + k:(j + 1) * n] == -0.5)
            assert np.all(lp.hi[b, j * n + k:(j + 1) * n] == 0.5)
        assert lp.widest[b] == np.max(wb)
        assert np.array_equal(lp.col_reach[b], np.r_[np.abs(xb).max(axis=0), np.ones(3)])
        np.testing.assert_allclose(lp.fitted(theta)[b], dense_b @ theta[b], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(lp.adjoint(v)[b], v[b] @ dense_b, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(lp.normal(q)[b], dense_b.T @ (q[b][:, None] * dense_b),
                                   rtol=1e-13, atol=1e-13)
        assert np.array_equal(lp.design(at)[b], dense_b[at[b]])
    padding = np.hstack([np.tile(~real, 3), np.zeros((2, 3), dtype=bool)])
    assert np.all(lp.fitted(theta)[padding] == 0.0)
    elsewhere_v, elsewhere_q = v.copy(), q.copy()
    elsewhere_v[padding] = rng.normal(size=np.count_nonzero(padding))
    elsewhere_q[padding] = rng.uniform(0.1, 3.0, size=np.count_nonzero(padding))
    assert np.array_equal(lp.adjoint(elsewhere_v), lp.adjoint(v))
    assert np.array_equal(lp.normal(elsewhere_q), lp.normal(q))
    assert np.all(lp.design(np.flatnonzero(padding[1])[None].repeat(2, axis=0))[1] == 0.0)


# --- lockstep paths against per-point fits ----------------------------------

def assert_path_matches_per_point_fits(ds, w, loss, fit_intercept, beta_tilde, lams):
    """fit_adaptive_lasso over lams against one fit_adaptive_lasso per lambda:
    objective within 1e-9 relative, identical supports, KKT residual at most
    1e-9 n; a point whose own fit raises must carry the same error class."""
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    path = fit_adaptive_lasso(ds, w, cfg, beta_tilde, lams)
    omega = adaptive_weights(beta_tilde)
    assert len(path) == len(lams)
    for lam, fit in zip(lams, path):
        try:
            alone = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), beta_tilde)
        except CensLassoError as exc:
            assert type(fit) is type(exc), (lam, fit, exc)
            continue
        assert isinstance(fit, EstimatorResult), (lam, fit)
        best = alone.objective
        assert abs(fit.objective - best) <= 1e-9 * max(1.0, abs(best)), (lam, fit.objective, best)
        assert fit.support == alone.support, lam
        assert len(fit.intercepts) == len(alone.intercepts)
        assert kkt_residual(ds, w, loss, lam, omega, fit) <= 1e-9 * ds.n, lam


def path_lambdas(n):
    """Every fourth BIC grid value, 0 (nothing penalized: a stack of its own)
    and 1e6, at which every coordinate is screened out."""
    return [0.0, *(n ** (0.5 - 1.0 / (10.0 * j)) for j in range(1, 21, 4)), 1e6]


def path_pilot(ds, w, loss, fit_intercept, seed):
    """The pilot, with one coordinate at exactly 0 on odd seeds (its penalty
    is then the 1e10 floor's)."""
    pilot = fit_unpenalized(ds, w, loss, FitConfig(loss=loss, fit_intercept=fit_intercept))
    beta = pilot.beta.copy()
    if seed % 2:
        beta[2] = 0.0
    return beta


@pytest.mark.parametrize("n", [150, 400])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_path_matches_per_point_fits(loss, fit_intercept, n):
    for seed in range(10):
        ds, w = random_problem(seed, n=n, p=5)
        beta_tilde = path_pilot(ds, w, loss, fit_intercept, seed)
        path = fit_adaptive_lasso(ds, w, FitConfig(loss=loss, fit_intercept=fit_intercept),
                                       beta_tilde, [1e6])
        assert path[0].support == frozenset()
        assert_path_matches_per_point_fits(ds, w, loss, fit_intercept, beta_tilde, path_lambdas(n))


@pytest.mark.parametrize("degeneracy", ["tied-responses", "duplicated-rows"])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_path_matches_per_point_fits_degenerate(loss, fit_intercept, degeneracy):
    for seed in range(10):
        ds, w = degenerate_case(seed, degeneracy)
        beta_tilde = path_pilot(ds, w, loss, fit_intercept, seed)
        assert_path_matches_per_point_fits(ds, w, loss, fit_intercept, beta_tilde,
                                           path_lambdas(ds.n))


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_lp_path_rank_deficient_design(loss, fit_intercept):
    # a duplicated column with unit adaptive weights: the stacked normal
    # matrices are singular and only their own problems' systems are damped;
    # the optimum is not unique (any split of the duplicated coefficient), so
    # objectives and certificates are compared, not supports
    lams = [1.0, 3.0, 10.0, 30.0]
    for seed in range(5):
        ds, w = random_problem(seed, n=150, p=4)
        ds = small_dataset(ds.y, ds.delta, np.column_stack([ds.x, ds.x[:, 1]]))
        cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
        path = fit_adaptive_lasso(ds, w, cfg, np.ones(ds.p), lams)
        for lam, fit in zip(lams, path):
            alone = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), np.ones(ds.p))
            assert abs(fit.objective - alone.objective) <= 1e-9 * alone.objective, lam
            assert kkt_residual(ds, w, loss, lam, np.ones(ds.p), fit) <= 1e-9 * ds.n, lam


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 60), p=st.integers(1, 4),
       loss=st.sampled_from(LP_LOSSES), fit_intercept=st.booleans(),
       lams=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6))
def test_lp_path_matches_per_point_fits_property(seed, n, p, loss, fit_intercept, lams):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 1.0, (n, p))
    z = x @ rng.normal(0.0, 1.5, p) + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int), x)
    w = make_weights(rng.uniform(0.5, 2.0, n))
    # some pilot coordinates exactly 0: the 1e10 floor's penalties
    beta_tilde = rng.normal(0.0, 1.0, p) * (rng.uniform(size=p) > 0.25)
    assert_path_matches_per_point_fits(ds, w, loss, fit_intercept, beta_tilde, lams)


@pytest.mark.parametrize("lam", [1.1e-212, 1e-310, 5e-324])
def test_lp_tiny_penalty_is_warning_free(lam):
    # a penalty far below the rounding of its dual constraint is fitted as 0:
    # the interior point would divide by its pseudo-row's box, about lam wide,
    # and overflow; the fit must still be the primal LP's
    import warnings

    loss = LossKind("median")
    cfg = FitConfig(loss=loss)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(1.0, 1.0, (12, 1))
        z = x @ rng.normal(0.0, 1.5, 1) + rng.gumbel(size=12)
        ds = small_dataset(np.exp(z), np.ones(12, dtype=int), x)
        w = make_weights(rng.uniform(0.5, 2.0, 12))
        pilot = fit_unpenalized(ds, w, loss, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), pilot.beta)
            [on_path] = fit_adaptive_lasso(ds, w, cfg, pilot.beta, [lam])
        omega = adaptive_weights(pilot.beta)
        beta, b, _ = check_loss_primal_lp(ds.x, np.log(ds.y), w.w, check_loss_levels(loss),
                                          cfg.fit_intercept, lam * omega)
        best = naive_objective(ds, w, loss, lam, omega, beta, b)
        for res in (fit, on_path):
            assert abs(res.objective - best) <= 1e-9 * max(1.0, best), (seed, res.objective, best)
            assert res.support == frozenset(np.flatnonzero(beta).tolist()), seed


def test_lp_path_points_stop_on_their_own():
    # each point of a stack freezes when it meets tol and keeps its own
    # iteration count; with max_iter below some counts only those points fail
    ds, w = random_problem(3, n=400, p=5)
    loss = LossKind("quantile", tau=0.3)
    cfg = FitConfig(loss=loss)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    lams = path_lambdas(ds.n)[1:]
    free = fit_adaptive_lasso(ds, w, cfg, pilot.beta, lams)
    counts = [fit.iterations for fit in free]
    cap = min(counts)
    assert max(counts) > cap
    capped = fit_adaptive_lasso(ds, w, cfg.replace(max_iter=cap), pilot.beta, lams)
    # the path sums up its points: every point's iterations, and whether all were fitted
    assert free.converged and free.iterations == sum(counts)
    assert not capped.converged and capped.iterations == counts.count(cap) * cap
    for fit, got in zip(free, capped):
        if fit.iterations <= cap:
            assert got.iterations == fit.iterations and np.array_equal(got.beta, fit.beta)
        else:
            assert isinstance(got, NoConvergence)
            assert f"did not converge ({cap} iterations)" in str(got)


def polished_path(monkeypatch, stacked, ds, w, cfg, *args):
    """fit_adaptive_lasso(ds, w, cfg, *args) with each stack polished at
    once, or (stacked False) with `_polish` run on one problem of the stack
    at a time; also counts the stacks polished, the points certified and
    the points with clipped columns (a pseudo-row box of 2 reach_j)."""
    seen = {"stacks": 0, "certified": 0, "clipped": 0}
    polish = solvers._polish
    boxes = clip_boxes(ds, w, cfg.loss)

    def spy(lp, live, a, theta):
        if stacked:
            polished = polish(lp, live, a, theta)
        else:
            polished = {}
            for k in live:
                polished.update(polish(lp, np.array([k]), a, theta))
        seen["stacks"] += 1
        seen["certified"] += len(polished)
        seen["clipped"] += int(np.count_nonzero(clipped_rows(lp, boxes)[live].any(axis=1)))
        return polished

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_polish", spy)
        return fit_adaptive_lasso(ds, w, cfg, *args), seen


def clipped_path_case(seed=1):
    """A 20-point BIC path at n = 400, p = 10 whose larger lambdas screen
    columns the smaller ones keep: the stack clips them."""
    ds, w = random_problem(seed, n=400, p=10)
    return ds, w, lambda_grid(ds.n)


@pytest.mark.parametrize("loss", [LossKind("median"), LossKind("quantile", tau=0.3),
                                  LossKind("composite_quantile", n_levels=3)],
                         ids=["median", "quantile0.3", "composite3"])
def test_stack_polish_is_the_per_problem_polish(monkeypatch, loss):
    # each problem is ranked and certified as the stack poses it, clipped
    # boxes included: polishing the stack at once or one problem at a time
    # from the same interior solution gives the same vertices.  Every column
    # is in the working set, so the stack keeps the columns that its larger
    # lambdas screen (with 8 of the 10, composite3's path clips none)
    ds, w, grid = clipped_path_case()
    monkeypatch.setattr(solvers, "_WORKING_SET", ds.p)
    cfg = FitConfig(loss=loss)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    stacked, seen = polished_path(monkeypatch, True, ds, w, cfg, pilot.beta, grid)
    alone, unseen = polished_path(monkeypatch, False, ds, w, cfg, pilot.beta, grid)
    assert seen["certified"] == len(grid) and unseen["certified"] == len(grid)
    assert seen["clipped"] > 0
    for fit, other in zip(stacked, alone):
        assert np.array_equal(fit.beta, other.beta)
        assert np.array_equal(fit.intercepts, other.intercepts)
        assert fit.support == other.support


@pytest.mark.parametrize("degeneracy", ["tied-responses", "duplicated-rows"])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", LP_LOSSES, ids=LP_LOSS_IDS)
def test_per_problem_polish_is_the_single_fit(monkeypatch, loss, fit_intercept, degeneracy):
    # polished one problem at a time, every point of a degenerate path (the
    # second ranking, `_first_independent`, snapping, the refit) is its single fit
    for seed in range(3):
        ds, w = degenerate_case(seed, degeneracy)
        beta_tilde = path_pilot(ds, w, loss, fit_intercept, seed)
        with monkeypatch.context() as patch:
            polish = solvers._polish
            patch.setattr(solvers, "_polish", lambda lp, live, *args: {
                k: v for b in live for k, v in polish(lp, np.array([b]), *args).items()})
            assert_path_matches_per_point_fits(ds, w, loss, fit_intercept, beta_tilde,
                                               path_lambdas(ds.n))


def test_polish_takes_each_of_its_steps(monkeypatch):
    # across the degenerate and clipped paths above, the polish must rank
    # by residual (the only `fitted` call `_polish` makes itself), search
    # for a basis (`_first_independent` called by `_polish` itself) and
    # apply a snap (`_snapped` returning a new point)
    seen = {"residual": 0, "search": 0, "snap": 0}
    fitted, first, snapped = solvers._DualRows.fitted, solvers._first_independent, solvers._snapped

    def by_polish():
        return sys._getframe(2).f_code.co_name == "_polish"

    def fitted_spy(self, theta):
        seen["residual"] += by_polish()
        return fitted(self, theta)

    def first_spy(*args):
        seen["search"] += by_polish()
        return first(*args)

    def snapped_spy(lp, basic, a, lo, hi, theta, snap):
        out = snapped(lp, basic, a, lo, hi, theta, snap)
        seen["snap"] += out is not theta
        return out

    monkeypatch.setattr(solvers._DualRows, "fitted", fitted_spy)
    monkeypatch.setattr(solvers, "_first_independent", first_spy)
    monkeypatch.setattr(solvers, "_snapped", snapped_spy)
    for loss in LP_LOSSES:
        for fit_intercept in (False, True):
            cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
            for seed in range(3):
                for degeneracy in ("tied-responses", "duplicated-rows"):
                    ds, w = degenerate_case(seed, degeneracy)
                    beta_tilde = path_pilot(ds, w, loss, fit_intercept, seed)
                    fit_adaptive_lasso(ds, w, cfg, beta_tilde, path_lambdas(ds.n))
            ds, w, grid = clipped_path_case()
            fit_adaptive_lasso(ds, w, cfg, fit_unpenalized(ds, w, loss, cfg).beta, grid)
    assert min(seen.values()) > 0, seen


def test_failed_stack_polish_refits_the_point_alone(monkeypatch):
    # tied responses, quantile(0.3) with an intercept: beside lambda 5 the
    # stack's duals for lambda 1e6 (every column clipped) stop too far from
    # their box ends for either ranking, so that point is fitted again alone
    ds, w = degenerate_case(1, "tied-responses")
    loss = LossKind("quantile", tau=0.3)
    cfg = FitConfig(loss=loss, fit_intercept=True)
    beta_tilde = path_pilot(ds, w, loss, True, 1)
    path, seen = polished_path(monkeypatch, True, ds, w, cfg, beta_tilde, [5.0, 1e6])
    assert seen == {"stacks": 2, "certified": 2, "clipped": 1}
    alone = fit_adaptive_lasso(ds, w, cfg.replace(lam=1e6), beta_tilde)
    assert np.array_equal(path[1].beta, alone.beta)
    assert np.array_equal(path[1].intercepts, alone.intercepts)
    assert path[1].objective == alone.objective and path[1].iterations == alone.iterations
    assert_path_matches_per_point_fits(ds, w, loss, True, beta_tilde, [5.0, 1e6])


def test_unpolished_fit_is_fitted_again_at_a_tighter_tol(monkeypatch):
    # the full-data median pilot of a 2e4-row design (seed 7): at tol 1e-8
    # the interior point stops with 51 residuals below 5e-7, too close to
    # tell its 50 basic rows, and neither ranking certifies a vertex; the
    # fit is run again alone at tol 1e-10, which does.  Its 15,000 active
    # rows are globbed, and the reduced problem, which keeps those rows,
    # takes the same retry on its own rows; the rest is the plain route
    from censlasso import data

    spec = GenerationSpec(n=20_000, p=50, beta0=(1.0, -2.0) + (0.0,) * 48, seed=7)
    ds, _ = data.generate_with_latents(
        spec, bound=data.calibrate_censoring_bound(spec, spec.target_censoring_rate))
    w = ipcw_weights(ds, fit_censoring_km(ds))
    loss = LossKind("median")
    tols, newton = [], solvers._frisch_newton

    def spy(lp, normal_u, tol, max_iter):
        tols.append(tol)
        return newton(lp, normal_u, tol, max_iter)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_frisch_newton", spy)
        globbed = fit_unpenalized(ds, w, loss)
    assert tols == [solvers._GLOB_GAP, 1e-8, 1e-10]
    tols.clear()
    monkeypatch.setattr(solvers, "_GLOB_ROWS", 10**9)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_frisch_newton", spy)
        fit = fit_unpenalized(ds, w, loss)
    assert tols == [1e-8, 1e-10]
    tight = fit_unpenalized(ds, w, loss, FitConfig(loss=loss, tol=1e-10))
    assert np.array_equal(fit.beta, tight.beta) and fit.iterations == tight.iterations
    assert fit.kkt_residual <= 1e-9 * ds.n
    assert np.array_equal(globbed.beta, fit.beta) and globbed.kkt_residual <= 1e-9 * ds.n
    # a fit no tolerance certifies still raises, after one tighter try
    tols.clear()
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_frisch_newton", spy)
        patch.setattr(solvers, "_polish", lambda *args: {})
        with pytest.raises(NoConvergence, match="no vertex it ranked passed"):
            fit_unpenalized(ds, w, loss)
    assert tols == [1e-8, 1e-10]


@pytest.mark.parametrize("loss, fit_intercept", [
    (LossKind("median"), False),
    (LossKind("quantile", tau=0.3), True),
    (LossKind("composite_quantile", n_levels=3), False),
    (LossKind("expectile", tau=0.35), False),
    (LossKind("expectile", tau=0.35), True),
], ids=["median", "quantile-intercept", "composite", "expectile", "expectile-intercept"])
def test_path_certificates_are_the_public_ones(loss, fit_intercept):
    # a path's objectives and KKT residuals are computed for all its points
    # at once; each must be what the public functions give for that point
    ds, w = random_problem(2, n=400, p=10)
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    omega = adaptive_weights(pilot.beta)
    grid = lambda_grid(ds.n)
    for lam, fit in zip(grid, fit_adaptive_lasso(ds, w, cfg, pilot.beta, grid)):
        objective = objective_value(ds, w, loss, lam, omega, fit.beta, fit.intercepts)
        scale = 1e-12 * max(1.0, abs(objective))
        assert abs(fit.objective - objective) <= scale, lam
        assert abs(fit.kkt_residual - kkt_residual(ds, w, loss, lam, omega, fit)) <= scale, lam


def test_singular_system_is_damped_for_its_own_problem_only():
    from censlasso.solvers import _solve_stack

    rank_one = np.outer([1.0, 2.0], [1.0, 2.0])
    normal = np.stack([np.eye(2), rank_one, np.zeros((2, 2))])
    rhs = np.ones((3, 2))
    d, singular = _solve_stack(normal, rhs)
    assert singular == [2]
    assert np.array_equal(normal[0], np.eye(2)) and np.array_equal(d[0], rhs[0])
    # the rank-one system is damped in place and solved
    assert np.all(np.diag(normal[1]) > np.diag(rank_one))
    assert np.allclose(normal[1] @ d[1], rhs[1])
    assert np.array_equal(d[2], np.zeros(2))


def test_expectile_path_is_its_per_point_fits():
    # the expectile route fits a path as one lockstep stack; a problem stops
    # once it converges and every product is its own, so each point is its
    # single fit bit for bit
    ds, w = random_problem(6, n=150, p=4)
    loss = LossKind("expectile", tau=0.35)
    cfg = FitConfig(loss=loss, fit_intercept=True)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    lams = [0.0, 2.0, 8.0]
    for lam, fit in zip(lams, fit_adaptive_lasso(ds, w, cfg, pilot.beta, lams)):
        alone = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), pilot.beta)
        assert np.array_equal(fit.beta, alone.beta) and fit.objective == alone.objective


def test_expectile_stack_fits_do_not_depend_on_the_row_blocks(monkeypatch):
    # with rows split into several blocks, a stack's Gram matrices are still
    # summed over the blocks a single fit uses, so each point stays its
    # single fit bit for bit
    monkeypatch.setattr(solvers, "_BLOCK", 64)
    ds, w = random_problem(4, n=150, p=4)
    loss = LossKind("expectile", tau=0.6)
    cfg = FitConfig(loss=loss)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    lams = [0.5, 2.0, 8.0]
    for lam, fit in zip(lams, fit_adaptive_lasso(ds, w, cfg, pilot.beta, lams)):
        alone = fit_adaptive_lasso(ds, w, cfg.replace(lam=lam), pilot.beta)
        assert np.array_equal(fit.beta, alone.beta) and fit.objective == alone.objective


def cd_route():
    """The expectile route with its exact active-set solve giving up every
    problem, so that each frozen quadratic goes to coordinate descent."""
    return mock.patch.object(solvers, "_active_set_lasso", lambda gram, lin, lam_w, beta, rounds:
                             (beta.copy(), np.zeros(len(beta), dtype=bool)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 60), p=st.integers(1, 5),
       tau=st.sampled_from([0.5, 0.2, 0.35, 0.8]), fit_intercept=st.booleans(),
       lams=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6))
def test_expectile_active_set_route_is_the_cd_route(seed, n, p, tau, fit_intercept, lams):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 1.0, (n, p))
    z = x @ rng.normal(0.0, 1.5, p) + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int), x)
    w = make_weights(rng.uniform(0.5, 2.0, n))
    # a pilot coordinate exactly 0: the 1e10 floor's penalty
    beta_tilde = rng.normal(0.0, 1.0, p)
    beta_tilde[rng.integers(p)] = 0.0
    lams = [0.0] + lams
    cfg = FitConfig(loss=LossKind("expectile", tau=tau), fit_intercept=fit_intercept)
    exact = fit_adaptive_lasso(ds, w, cfg, beta_tilde, lams)
    with cd_route():
        descent = fit_adaptive_lasso(ds, w, cfg, beta_tilde, lams)
    for lam, got, want in zip(lams, exact, descent):
        assert isinstance(got, CensLassoError) == isinstance(want, CensLassoError), lam
        if isinstance(got, CensLassoError):
            continue
        assert got.support == want.support, lam
        assert abs(got.objective - want.objective) <= 1e-9 * abs(want.objective), lam
        assert got.kkt_residual <= 1e-6 * n, lam


def test_expectile_square_design_interpolates():
    # as many rows as columns: the fit interpolates, so its residuals are 0
    # up to rounding and their signs flip from one Newton step to the next;
    # such a row keeps its sign, and the fit converges to the interpolation
    rng = np.random.default_rng(0)
    n = p = 12
    x = rng.normal(1.0, 1.0, (n, p))
    z = x @ rng.normal(0.0, 1.5, p) + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int), x)
    w = make_weights(rng.uniform(0.5, 2.0, n))
    beta_tilde = rng.normal(0.0, 1.0, p)
    beta_tilde[rng.integers(p)] = 0.0
    fit = fit_adaptive_lasso(ds, w, FitConfig(loss=LossKind("expectile", tau=0.2)), beta_tilde)
    assert np.allclose(x @ fit.beta, z, rtol=0.0, atol=1e-9)
    assert fit.kkt_residual <= 1e-9 * n


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fit_intercept", [False, True])
def test_singular_active_block_falls_back_to_coordinate_descent(seed, fit_intercept):
    # a duplicated covariate: while both copies are active the active block
    # is singular, so every Newton step's frozen quadratic goes to coordinate
    # descent and the fit is the coordinate-descent route's
    rng = np.random.default_rng(seed)
    n = 80
    x = rng.normal(1.0, 1.0, (n, 3))
    z = x @ [1.0, -2.0, 0.5] + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int), np.column_stack([x, x[:, 0]]))
    w = make_weights(rng.uniform(0.5, 2.0, n))
    loss = LossKind("expectile", tau=0.35)
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    pilot = fit_unpenalized(ds, w, loss, cfg)
    lams = [0.5, 2.0, 8.0]
    real, fallbacks = solvers._gram_lasso, []

    def counted(gram, lin, lam_w, beta, tol, max_sweeps):
        fallbacks.append(lam_w)
        return real(gram, lin, lam_w, beta, tol, max_sweeps)

    with mock.patch.object(solvers, "_gram_lasso", counted):
        exact = fit_adaptive_lasso(ds, w, cfg, pilot.beta, lams)
    with cd_route():
        descent = fit_adaptive_lasso(ds, w, cfg, pilot.beta, lams)
    assert len(fallbacks) == sum(fit.iterations for fit in exact)
    assert all(np.all(lam_w[-4:] > 0.0) for lam_w in fallbacks)
    for got, want in zip(exact, descent):
        assert np.array_equal(got.beta, want.beta)
        assert np.array_equal(got.intercepts, want.intercepts)
        assert got.objective == want.objective and got.iterations == want.iterations


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("duplicated", [False, True], ids=["independent", "duplicated"])
def test_unpenalized_expectile_stack_goes_to_gram_lasso_only_when_singular(duplicated,
                                                                           fit_intercept):
    # without a penalty every coordinate is active, so the active set's first
    # round solves the Gram system itself and an unpenalized stack (here the
    # pilots of four groups) never reaches _gram_lasso; a singular Gram
    # matrix (a duplicated covariate) is given up and solved there.  Either
    # way each fit is the one where _gram_lasso solves every frozen problem
    rng = np.random.default_rng(5)
    n = 240
    x = rng.normal(1.0, 1.0, (n, 3))
    z = x @ [1.0, -2.0, 0.5] + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int),
                       np.column_stack([x, x[:, 0]]) if duplicated else x)
    subs = [ds.subset(np.arange(k, n, 4)) for k in range(4)]
    weights = [make_weights(rng.uniform(0.5, 2.0, sub.n)) for sub in subs]
    loss = LossKind("expectile", tau=0.35)
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    real, solved = solvers._gram_lasso, []

    def counted(gram, lin, lam_w, beta, tol, max_sweeps):
        solved.append(lam_w)
        return real(gram, lin, lam_w, beta, tol, max_sweeps)

    with mock.patch.object(solvers, "_gram_lasso", counted):
        fits = fit_unpenalized(subs, weights, loss, cfg)
    with cd_route():
        direct = fit_unpenalized(subs, weights, loss, cfg)
    assert len(solved) == (sum(fit.iterations for fit in fits) if duplicated else 0)
    assert all(not np.any(lam_w) for lam_w in solved)
    for got, want in zip(fits, direct):
        assert np.array_equal(got.beta, want.beta)
        assert np.array_equal(got.intercepts, want.intercepts)
        assert got.objective == want.objective and got.iterations == want.iterations


def test_path_rejects_negative_lambda():
    ds, w = random_problem(1, n=60, p=3)
    with pytest.raises(ValueError):
        fit_adaptive_lasso(ds, w, FitConfig(loss=LossKind("median")), np.ones(3), [1.0, -1.0])


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_path_rejects_non_finite_lambda(lam):
    ds, w = random_problem(1, n=60, p=3)
    with pytest.raises(ValueError, match="lam must be finite"):
        fit_adaptive_lasso(ds, w, FitConfig(loss=LossKind("median")), np.ones(3), [1.0, lam])


@pytest.mark.parametrize("setting, value", [
    (setting, value)
    for setting in ("lam", "gamma", "tol")
    for value in (np.nan, np.inf, -np.inf, -1.0)
] + [("gamma", 0.0), ("tol", 0.0)])
def test_fit_config_rejects_out_of_range_settings(setting, value):
    # NaN fails every comparison, so the range checks must not pass it
    with pytest.raises(ValueError, match=f"{setting} must be finite"):
        FitConfig(loss=LossKind("median"), **{setting: value})


# --- working sets against the unscreened fits -------------------------------

SCREEN_LOSSES = [
    (LossKind("median"), False),
    (LossKind("quantile", tau=0.3), False),
    (LossKind("composite_quantile", n_levels=3), True),
    (LossKind("expectile", tau=0.35), False),
    (LossKind("expectile", tau=0.35), True),
]
SCREEN_LOSS_IDS = ["median", "quantile0.3", "composite3-intercepts", "expectile",
                   "expectile-intercept"]


def screened_and_unscreened(patch, fit):
    """fit() with a first working set of one penalized column, and again
    with every column in it; also whether the route solvers were ever given
    a problem with more than one penalized column kept (a second round)."""
    counts = []

    def spy(real):
        def solve(x, z, w, loss, lam_ws, *args):
            counts.append(int(np.count_nonzero(np.isfinite(lam_ws) & (lam_ws > 0.0), axis=1).max()))
            return real(x, z, w, loss, lam_ws, *args)
        return solve

    with patch.context() as p:
        p.setattr(solvers, "_WORKING_SET", 1)
        p.setattr(solvers, "_solve_lp_family", spy(solvers._solve_lp_family))
        p.setattr(solvers, "_solve_expectile", spy(solvers._solve_expectile))
        screened = fit()
    with patch.context() as p:
        p.setattr(solvers, "_WORKING_SET", 10**9)
        full = fit()
    return screened, full, max(counts) > 1


def assert_same_fits(screened, full, loss, n):
    """The same support, objectives within 1e-9 relative and the KKT bound of
    the route (1e-9 n on the LP route, 1e-6 n on expectile)."""
    bound = (1e-9 if loss.is_lp_family else 1e-6) * n
    assert len(screened) == len(full)
    for k, (got, want) in enumerate(zip(screened, full)):
        assert got.support == want.support, k
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective)), k
        assert got.kkt_residual <= bound, (k, got.kkt_residual)


@pytest.mark.parametrize("shape", ["single", "groups", "bic-path"])
@pytest.mark.parametrize("loss, fit_intercept", SCREEN_LOSSES, ids=SCREEN_LOSS_IDS)
def test_working_set_fits_are_the_unscreened_fits(monkeypatch, loss, fit_intercept, shape):
    # from one penalized column, every fit must grow its working set to the
    # unscreened fit's support through the exact check of the columns left
    # out: single fits, own-row group stacks and BIC paths on shared rows
    from censlasso.aggregation import interleaved_split
    from censlasso.tuning import BicConfig, fixed_lambda, select_lambda

    grew = False
    for seed in range(3):
        ds, w = random_problem(seed, n=400, p=8, beta=(1.0, -2.0, 0.0, 0.5) + (0.0,) * 4)
        cfg = FitConfig(loss=loss, fit_intercept=fit_intercept, lam=fixed_lambda(ds.n, 1))
        if shape == "groups":
            subs = [ds.subset(g) for g in interleaved_split(ds.n, 4).groups]
            weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
            tildes = [pilot.beta for pilot in fit_unpenalized(subs, weights, loss, cfg)]
            screened, full, second = screened_and_unscreened(
                monkeypatch, lambda: fit_adaptive_lasso(subs, weights, cfg, tildes))
            assert_same_fits(screened, full, loss, ds.n // 4)
        elif shape == "single":
            tilde = fit_unpenalized(ds, w, loss, cfg).beta
            screened, full, second = screened_and_unscreened(
                monkeypatch, lambda: [fit_adaptive_lasso(ds, w, cfg, tilde)])
            assert_same_fits(screened, full, loss, ds.n)
        else:
            screened, full, second = screened_and_unscreened(
                monkeypatch, lambda: select_lambda(ds, w, loss, lambda_grid(ds.n), BicConfig(),
                                                   fit_config=cfg))
            assert screened.best.lam == full.best.lam
            assert_same_fits([e.result for e in screened.entries],
                             [e.result for e in full.entries], loss, ds.n)
        grew |= second
    assert grew


def test_working_set_column_enters_through_the_dual_check(monkeypatch):
    # the `massive-fixed` design at seed 1, median, K = 25, group 16: its
    # first working set, the 8 columns with the smallest penalties, leaves
    # out column 33 (the 9th).  The fit on those 8 has a KKT residual of 0
    # (each coordinate's interval alone admits 0) and passes its own duality
    # gap, yet its objective is 8.7e-6 above the full fit's: only the vertex
    # duals, shared by every coordinate, show that |x_33'a| exceeds lam_33
    from censlasso import data
    from censlasso.aggregation import interleaved_split
    from censlasso.tuning import fixed_lambda

    spec = GenerationSpec(n=20_000, p=50, beta0=(1.0, -2.0) + (0.0,) * 48, seed=1)
    ds, _ = data.generate_with_latents(
        spec, bound=data.calibrate_censoring_bound(spec, spec.target_censoring_rate))
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 25).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    loss = LossKind("median")
    cfg = FitConfig(loss=loss, lam=fixed_lambda(800, 1))
    tildes = np.array([pilot.beta for pilot in fit_unpenalized(subs, weights, loss, cfg)])
    lam_w = cfg.lam * adaptive_weights(tildes[16])
    assert list(np.argsort(lam_w, kind="stable")).index(33) == 8
    calls, real = [], solvers._solve_lp_family

    def spy(x, z, w, loss, lam_ws, *args):
        calls.append(lam_ws.copy())
        return real(x, z, w, loss, lam_ws, *args)

    monkeypatch.setattr(solvers, "_WORKING_SET", 8)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_solve_lp_family", spy)
        fits = fit_adaptive_lasso(subs, weights, cfg, tildes)
    assert np.isinf(calls[0][16, 33])
    assert any(np.any(lams[:, 33] == lam_w[33]) for lams in calls[1:])
    assert 33 in fits[16].support
    monkeypatch.setattr(solvers, "_WORKING_SET", 10**9)
    full = fit_adaptive_lasso(subs, weights, cfg, tildes)
    assert_same_fits(fits, full, loss, 800)


@pytest.mark.parametrize("loss", [LossKind("median"), LossKind("expectile", tau=0.35)],
                         ids=["median", "expectile"])
def test_working_set_fit_that_fails_is_solved_on_every_column(monkeypatch, loss):
    # a fit that fails with columns left out is not given up: it is solved
    # again on every column, where it is the unscreened fit
    ds, w = random_problem(2, n=300, p=8)
    cfg = FitConfig(loss=loss, lam=3.0)
    tilde = fit_unpenalized(ds, w, loss, cfg).beta
    name = "_solve_lp_family" if loss.is_lp_family else "_solve_expectile"
    calls, real = [], getattr(solvers, name)

    def failing(x, z, w_rows, loss, lam_ws, *args):
        calls.append(lam_ws.copy())
        return [NoConvergence("synthetic") if np.isinf(row).any() else fit
                for row, fit in zip(lam_ws, real(x, z, w_rows, loss, lam_ws, *args))]

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_WORKING_SET", 2)
        patch.setattr(solvers, name, failing)
        fit = fit_adaptive_lasso(ds, w, cfg, tilde)
    assert len(calls) == 2 and np.isinf(calls[0]).any() and np.isfinite(calls[1]).all()
    full = fit_adaptive_lasso(ds, w, cfg, tilde)
    assert np.array_equal(fit.beta, full.beta) and fit.objective == full.objective


def test_violators_include_columns_within_rounding_of_their_penalty():
    # |x_j'g| = (1.25, 0.75, 0.5): a column left out passes only when its
    # penalty clears |x_j'g| by more than the rounding slack; a kept column
    # is never a violator
    x = np.array([[1.0, 2.0, 1.0], [3.0, -1.0, 0.0]])
    g = np.array([0.5, 0.25])
    col_max = np.abs(x).max(axis=0)
    kept = np.array([False, False, True])
    at = np.array([1.25, 0.75, 0.5])
    assert solvers._violators(g, x, at, kept, col_max).tolist() == [True, True, False]
    assert solvers._violators(g, x, at * (1 + 1e-12), kept, col_max).tolist() == [True, True, False]
    assert not solvers._violators(g, x, at * (1 + 1e-6), kept, col_max).any()
    assert solvers._violators(g, x, at * (1 - 1e-6), kept, col_max).tolist() == [True, True, False]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 60), p=st.integers(2, 6),
       loss=st.sampled_from(LP_LOSSES + [LossKind("expectile", tau=0.35)]),
       fit_intercept=st.booleans(), lams=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6))
def test_working_set_fits_are_the_unscreened_fits_property(seed, n, p, loss, fit_intercept, lams):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 1.0, (n, p))
    z = x @ rng.normal(0.0, 1.5, p) + rng.gumbel(size=n)
    ds = small_dataset(np.exp(z), np.ones(n, dtype=int), x)
    w = make_weights(rng.uniform(0.5, 2.0, n))
    # some pilot coordinates exactly 0: the 1e10 floor's penalties
    beta_tilde = rng.normal(0.0, 1.0, p) * (rng.uniform(size=p) > 0.25)
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    fits = {}
    for size in (1, 10**9):
        with mock.patch.object(solvers, "_WORKING_SET", size):
            fits[size] = fit_adaptive_lasso(ds, w, cfg, beta_tilde, lams)
    for got, want in zip(fits[1], fits[10**9]):
        if isinstance(want, CensLassoError):
            assert type(got) is type(want)
            continue
        assert_same_fits([got], [want], loss, n)


# --- row globbing against the unglobbed fits --------------------------------

GLOB_LOSSES = LP_LOSSES[:3]
GLOB_LOSS_IDS = LP_LOSS_IDS[:3]


def glob_rounds(patch):
    """A list that gets, for each `_globbed` call while the patch lasts, the
    number of problems each of its reduced solves took."""
    rounds, real_globbed, real_reduced = [], solvers._globbed, solvers._reduced

    def globbed(*args):
        rounds.append([])
        return real_globbed(*args)

    def reduced(x, z, w, band, *args):
        rounds[-1].append(len(band))
        return real_reduced(x, z, w, band, *args)

    patch.setattr(solvers, "_globbed", globbed)
    patch.setattr(solvers, "_reduced", reduced)
    return rounds


@pytest.mark.parametrize("band", [solvers._GLOB_BAND, 2], ids=["band", "thin-band"])
@pytest.mark.parametrize("case", ["n60", "n150", "n400", "tied-responses", "duplicated-rows"])
@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", GLOB_LOSSES, ids=GLOB_LOSS_IDS)
def test_globbed_lp_fits_match_primal_lp_oracle(monkeypatch, loss, fit_intercept, case, band):
    # the oracle cases with every median and quantile fit globbed; a thin
    # band (2 rows per coordinate) makes collapsed rows cross, so fix-up
    # rounds run too
    monkeypatch.setattr(solvers, "_GLOB_ROWS", 0)
    monkeypatch.setattr(solvers, "_GLOB_BAND", band)
    rounds = glob_rounds(monkeypatch)
    for seed in range(10):
        if case.startswith("n"):
            ds, w = random_problem(seed, n=int(case[1:]), p=5)
        else:
            ds, w = degenerate_case(seed, case)
        assert_matches_primal_lp(ds, w, loss, fit_intercept)
    assert rounds and all(rounds)


@pytest.mark.parametrize("rounds", [solvers._GLOB_ROUNDS, 1], ids=["rounds", "one-round"])
def test_globbed_fit_that_crosses_is_fixed_up(monkeypatch, rounds):
    # a band of one row per coordinate leaves collapsed rows that cross the
    # reduced fit: they join the band and a second reduced solve runs, or,
    # with one round allowed, the fit is solved on all its rows.  Either way
    # the fits are the unglobbed ones
    loss = LossKind("quantile", tau=0.3)
    fits, full_passes, newton = {}, [], solvers._frisch_newton

    def spy(lp, normal_u, tol, max_iter):
        if lp.x.ndim == 2 and lp.n == n_active and tol != solvers._GLOB_GAP:
            full_passes.append(tol)
        return newton(lp, normal_u, tol, max_iter)

    for glob in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_GLOB_ROWS", 0 if glob else 10**9)
            patch.setattr(solvers, "_GLOB_BAND", 1)
            patch.setattr(solvers, "_GLOB_ROUNDS", rounds)
            patch.setattr(solvers, "_frisch_newton", spy)
            solves, full_passes[:] = glob_rounds(patch), []
            fits[glob] = []
            for seed in range(3):
                ds, w = random_problem(seed, n=400, p=5)
                n_active = int(np.count_nonzero(w.w > 0.0))
                cfg = FitConfig(loss=loss, lam=ds.n ** 0.4)
                pilot = fit_unpenalized(ds, w, loss, cfg)
                fits[glob] += [pilot, fit_adaptive_lasso(ds, w, cfg, pilot.beta)]
        assert bool(solves) == glob
        if glob and rounds > 1:
            assert any(len(solved) > 1 for solved in solves)
        elif glob:
            assert full_passes and all(len(solved) == 1 for solved in solves)
    assert_same_fits(fits[True], fits[False], loss, 400)


def globbed_and_unglobbed(patch, fit):
    """fit() as it runs, and again with globbing off; also the `_globbed`
    calls of the first run (`glob_rounds`)."""
    with patch.context() as p:
        rounds = glob_rounds(p)
        globbed = fit()
    with patch.context() as p:
        p.setattr(solvers, "_GLOB_ROWS", 10**9)
        unglobbed = fit()
    return globbed, unglobbed, rounds


def large_problem(seed=0):
    # about 4500 active rows, above _GLOB_ROWS
    ds, w = random_problem(seed, n=7000, p=8, beta=(1.0, -2.0, 0.0, 0.5) + (0.0,) * 4)
    assert np.count_nonzero(w.w > 0.0) >= solvers._GLOB_ROWS
    return ds, w


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", GLOB_LOSSES, ids=GLOB_LOSS_IDS)
def test_globbed_band_is_capped_by_its_share_of_the_rows(monkeypatch, loss, fit_intercept):
    # where _GLOB_SHARE of the rows is fewer than _GLOB_BAND x m, the band
    # is that share, and the fits are still the unglobbed ones
    ds, w = large_problem(2)
    n_active = int(np.count_nonzero(w.w > 0.0))
    cfg = FitConfig(loss=loss, lam=ds.n ** 0.4, fit_intercept=fit_intercept)
    sizes, real = [], solvers._globbed

    def spy(x, z, w, resid, size, *args):
        sizes.append(size)
        return real(x, z, w, resid, size, *args)

    monkeypatch.setattr(solvers, "_GLOB_SHARE", 0.02)
    monkeypatch.setattr(solvers, "_globbed", spy)

    def fits():
        pilot = fit_unpenalized(ds, w, loss, cfg)
        return [pilot, fit_adaptive_lasso(ds, w, cfg, pilot.beta)]

    globbed = fits()
    assert sizes and set(sizes) == {math.ceil(0.02 * n_active)}
    assert sizes[0] < solvers._GLOB_BAND * (ds.p + fit_intercept)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_GLOB_ROWS", 10**9)
        unglobbed = fits()
    assert_same_fits(globbed, unglobbed, loss, ds.n)


@pytest.mark.parametrize("loss", GLOB_LOSSES[:2], ids=GLOB_LOSS_IDS[:2])
def test_globbed_working_set_column_enters_through_the_full_row_duals(monkeypatch, loss):
    # from a working set of one penalized column, the support's other
    # columns enter through `_violators`, given a g on every active row
    ds, w = large_problem()
    n_active = int(np.count_nonzero(w.w > 0.0))
    cfg = FitConfig(loss=loss, lam=ds.n ** 0.4)
    tilde = fit_unpenalized(ds, w, loss, cfg).beta
    checks, real = [], solvers._violators

    def spy(g, x, lam_w, kept, col_max):
        out = real(g, x, lam_w, kept, col_max)
        checks.append((len(g), out.copy()))
        return out

    monkeypatch.setattr(solvers, "_WORKING_SET", 1)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_violators", spy)
        fit, unglobbed, rounds = globbed_and_unglobbed(
            patch, lambda: fit_adaptive_lasso(ds, w, cfg, tilde))
    assert rounds and checks[0][0] == n_active and checks[0][1].any()
    assert len(fit.support) > 1
    monkeypatch.setattr(solvers, "_WORKING_SET", 10**9)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_GLOB_ROWS", 10**9)
        full = fit_adaptive_lasso(ds, w, cfg, tilde)
    assert_same_fits([fit, unglobbed], [full, full], loss, ds.n)


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", GLOB_LOSSES[:2], ids=GLOB_LOSS_IDS[:2])
def test_globbed_bic_path_is_the_unglobbed_path(monkeypatch, loss, fit_intercept):
    from censlasso.tuning import BicConfig, select_lambda

    ds, w = large_problem(1)
    cfg = FitConfig(loss=loss, fit_intercept=fit_intercept)
    got, want, rounds = globbed_and_unglobbed(
        monkeypatch, lambda: select_lambda(ds, w, loss, lambda_grid(ds.n), BicConfig(),
                                           fit_config=cfg))
    assert rounds
    assert got.best.lam == want.best.lam and got.best.result.support == want.best.result.support
    for a, b in zip(got.entries, want.entries):
        assert abs(a.score - b.score) <= 1e-9 * max(1.0, abs(b.score))
    assert_same_fits([e.result for e in got.entries], [e.result for e in want.entries], loss, ds.n)


def test_globbed_fit_stopped_short_raises(monkeypatch):
    # one iteration cannot reach the loose gap either
    ds, w = large_problem()
    loss = LossKind("median")
    rounds = glob_rounds(monkeypatch)
    with pytest.raises(NoConvergence):
        fit_unpenalized(ds, w, loss, FitConfig(loss=loss, max_iter=1))
    assert not rounds
    fit = fit_unpenalized(ds, w, loss, FitConfig(loss=loss))
    assert rounds and fit.duality_gap <= 1e-9 * fit.objective


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
    om = adaptive_weights([2.0, 0.0, -0.5], gamma=1.0)
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


@pytest.mark.parametrize("loss", [LossKind("median"), LossKind("quantile", tau=0.3),
                                  LossKind("expectile", tau=0.7)], ids=lambda loss: loss.family)
def test_objective_value_rejects_extra_intercepts(loss):
    # a single-level loss has one intercept, so a second one is an error,
    # not left unread
    ds, w = random_problem(9, n=30, p=3)
    beta = np.ones(3)
    one = objective_value(ds, w, loss, 1.0, np.ones(3), beta, [1.0])
    assert one != objective_value(ds, w, loss, 1.0, np.ones(3), beta)
    with pytest.raises(DimensionMismatch):
        objective_value(ds, w, loss, 1.0, np.ones(3), beta, [1.0, 2.0])


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

import math

import numpy as np
import pytest

import censlasso.solvers as solvers
import censlasso.tuning as tuning
from censlasso.data import GenerationSpec, generate_dataset
from censlasso.errors import SolverError, ZeroNormalizer
from censlasso.kaplan_meier import IpcwWeights, fit_censoring_km, ipcw_weights
from censlasso.losses import LossKind
from censlasso.solvers import EstimatorResult, FitConfig, adaptive_weights, fit_unpenalized
from censlasso.tuning import (
    BicConfig,
    bic_score,
    fixed_lambda,
    lambda_grid,
    select_lambda,
)

from helpers import clip_boxes, clipped_rows, make_weights, small_dataset


def problem(seed=0, n=200, p=5):
    spec = GenerationSpec(n=n, p=p, beta0=(1.0, -2.0) + (0.0,) * (p - 2), seed=seed)
    ds = generate_dataset(spec, bound=8.0)
    return ds, ipcw_weights(ds, fit_censoring_km(ds))


# --- grid -------------------------------------------------------------------

def test_lambda_grid_endpoints():
    grid = lambda_grid(1000)
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1000 ** 0.4)
    assert grid[0] == pytest.approx(15.8489, abs=1e-3)
    assert grid[-1] == pytest.approx(1000 ** 0.495)


def test_lambda_grid_increasing_and_below_root_n():
    for n in [2, 10, 1000, 10**6]:
        grid = lambda_grid(n)
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] < math.sqrt(n)


def test_lambda_grid_diverges_with_n():
    j5_small = lambda_grid(100)[4]
    j5_big = lambda_grid(10**8)[4]
    assert j5_big > j5_small


def test_fixed_lambda_matches_grid():
    assert fixed_lambda(5000, 3) == pytest.approx(lambda_grid(5000)[2])
    with pytest.raises(ValueError):
        fixed_lambda(5000, 0)
    with pytest.raises(ValueError):
        fixed_lambda(1, 1)


# --- score ------------------------------------------------------------------

def test_bic_score_at_pilot_is_one_plus_penalty():
    ds, w = problem()
    loss = LossKind("quantile", tau=0.4)
    pilot = fit_unpenalized(ds, w, loss)
    cfg = BicConfig()
    score = bic_score(ds, w, pilot, pilot, loss, cfg)
    expected = 1.0 + len(pilot.support) * math.log(ds.n) / ds.n
    assert score == pytest.approx(expected, abs=1e-12)


def test_bic_score_empty_support_has_no_penalty_term():
    ds, w = problem()
    loss = LossKind("median")
    pilot = fit_unpenalized(ds, w, loss)
    zero = EstimatorResult(
        beta=np.zeros(ds.p), intercepts=np.zeros(0), objective=0.0,
        iterations=0, converged=True,
    )
    from censlasso.solvers import objective_value

    score = bic_score(ds, w, zero, pilot, loss, BicConfig())
    num = objective_value(ds, w, loss, 0.0, np.zeros(ds.p), np.zeros(ds.p))
    den = objective_value(ds, w, loss, 0.0, np.zeros(ds.p), pilot.beta)
    assert score == pytest.approx(num / den, abs=1e-12)


def test_bic_score_matches_naive_recomputation():
    ds, w = problem(seed=4, n=60, p=3)
    loss = LossKind("expectile", tau=0.3)
    cfg = FitConfig(loss=loss, lam=60 ** 0.4)
    pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
    from censlasso.solvers import fit_adaptive_lasso

    res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
    for mode, m in [("log_n_over_n", ds.n), ("log_nu_over_nu", ds.n_events)]:
        z = np.log(ds.y)
        loss_at = lambda b: float(
            w.w @ (np.abs(0.3 - ((z - ds.x @ b) < 0)) * (z - ds.x @ b) ** 2)
        )
        naive = loss_at(res.beta) / loss_at(pilot.beta) + len(res.support) * math.log(m) / m
        score = bic_score(ds, w, res, pilot, loss, BicConfig(penalty_mode=mode))
        assert score == pytest.approx(naive, rel=1e-12)


def test_bic_score_zero_normalizer():
    # y = 1 everywhere: log-responses are exactly zero, so the zero pilot
    # has exactly zero loss
    x = np.array([[1.0], [2.0], [3.0]])
    ds = small_dataset([1.0, 1.0, 1.0], [1, 1, 1], x)
    w = make_weights(np.ones(3))
    loss = LossKind("median")
    pilot = EstimatorResult(
        beta=np.zeros(1), intercepts=np.zeros(0), objective=0.0,
        iterations=0, converged=True,
    )
    with pytest.raises(ZeroNormalizer):
        bic_score(ds, w, pilot, pilot, loss, BicConfig())


def test_bic_penalty_mode_uses_event_count():
    ds, w = problem(seed=8)
    loss = LossKind("median")
    pilot = fit_unpenalized(ds, w, loss)
    s_n = bic_score(ds, w, pilot, pilot, loss, BicConfig("log_n_over_n"))
    s_nu = bic_score(ds, w, pilot, pilot, loss, BicConfig("log_nu_over_nu"))
    nu = ds.n_events
    assert s_n - 1.0 == pytest.approx(len(pilot.support) * math.log(ds.n) / ds.n)
    assert s_nu - 1.0 == pytest.approx(len(pilot.support) * math.log(nu) / nu)


def test_bic_score_invariant_to_weight_rescaling():
    ds, w = problem(seed=5, n=100, p=4)
    loss = LossKind("quantile", tau=0.4)
    cfg = FitConfig(loss=loss, lam=100 ** 0.4)
    from censlasso.solvers import fit_adaptive_lasso

    pilot = fit_unpenalized(ds, w, loss, cfg.replace(lam=0.0))
    res = fit_adaptive_lasso(ds, w, cfg, pilot.beta)
    scaled = IpcwWeights(w=3.7 * w.w, floor_used=w.floor_used)
    s1 = bic_score(ds, w, res, pilot, loss, BicConfig())
    s2 = bic_score(ds, scaled, res, pilot, loss, BicConfig())
    assert s1 == pytest.approx(s2, rel=1e-12)


# --- path selection ---------------------------------------------------------

def test_select_lambda_single_point():
    ds, w = problem(seed=2)
    loss = LossKind("expectile", tau=0.4)
    path = select_lambda(ds, w, loss, [5.0], BicConfig())
    assert path.best_index == 0
    assert len(path.entries) == 1


def test_select_lambda_tie_prefers_smaller():
    ds, w = problem(seed=3, n=80, p=3)
    loss = LossKind("expectile", tau=0.4)
    # both huge: identical all-zero fits, identical scores
    path = select_lambda(ds, w, loss, [1e7, 1e8], BicConfig())
    assert path.entries[0].score == path.entries[1].score
    assert path.best_index == 0


def test_select_lambda_support_shrinks_along_grid():
    ds, w = problem(seed=7, n=300, p=8)
    loss = LossKind("expectile", tau=0.35)
    grid = lambda_grid(ds.n)
    path = select_lambda(ds, w, loss, grid, BicConfig())
    first, last = path.entries[0], path.entries[-1]
    assert last.support_size <= first.support_size


def test_select_lambda_records_failures(monkeypatch):
    ds, w = problem(seed=9, n=60, p=3)
    loss = LossKind("expectile", tau=0.4)
    omega = adaptive_weights(fit_unpenalized(ds, w, loss).beta)
    real = solvers._solve_expectile

    def flaky(x, z, w_rows, loss, lam_ws, config, beta_start):
        # the expectile grid runs as one stack: fail grid point 2's own
        # problem, whose penalties are 2.0 * omega
        return [SolverError("synthetic failure") if np.array_equal(lam_w, 2.0 * omega) else fit
                for lam_w, fit in zip(lam_ws, real(x, z, w_rows, loss, lam_ws, config, beta_start))]

    monkeypatch.setattr(solvers, "_solve_expectile", flaky)
    path = select_lambda(ds, w, loss, [1.0, 2.0, 4.0], BicConfig())
    assert path.entries[1].failed
    assert "synthetic failure" in path.entries[1].error
    assert not path.entries[0].failed
    assert path.best is not path.entries[1]


def test_select_lambda_isolates_a_failing_lp_grid_point(monkeypatch):
    # the LP grid runs as one lockstep stack: one problem whose vertex fails
    # must fail alone, and leave every other grid point as it was
    ds, w = problem(seed=4)
    loss = LossKind("median")
    grid = lambda_grid(ds.n)
    clean = select_lambda(ds, w, loss, grid, BicConfig())
    omega = adaptive_weights(fit_unpenalized(ds, w, loss).beta)
    real = solvers._polish
    boxes = clip_boxes(ds, w, loss)

    def failing(lp, live, a, theta):
        # grid point 3's own problem, whose pseudo-row boxes are lam_3 * omega
        # where it does not clip them (to 2 reach_j), gets no vertex
        own = ~clipped_rows(lp, boxes)
        return {k: vertex for k, vertex in real(lp, live, a, theta).items()
                if not (own[k].any() and np.isin(lp.hi[k, lp.n_obs:][own[k]],
                                                  grid[3] * omega).all())}

    monkeypatch.setattr(solvers, "_polish", failing)
    path = select_lambda(ds, w, loss, grid, BicConfig())
    assert path.entries[3].failed
    assert "no vertex it ranked passed the optimality check" in path.entries[3].error
    assert not clean.entries[3].failed
    for k, (got, want) in enumerate(zip(path.entries, clean.entries)):
        if k == 3:
            continue
        assert got.score == want.score and got.support_size == want.support_size
        for attr in ("beta", "intercepts"):
            assert np.array_equal(getattr(got.result, attr), getattr(want.result, attr))
        for attr in ("objective", "iterations", "duality_gap", "kkt_residual"):
            assert getattr(got.result, attr) == getattr(want.result, attr)


def test_select_lambda_records_unconverged_grid_point(monkeypatch):
    ds, w = problem(seed=0)
    loss = LossKind("expectile", tau=0.4)
    steps = fit_unpenalized(ds, w, loss).iterations
    # the exact active-set solve gives up every problem, so coordinate descent
    # carries the penalized fits, at most max_iter sweeps a step.  The pilot
    # converges within its own step count and lambda = 0 restarts at the
    # pilot's optimum (both are direct solves); the penalized descent needs
    # more sweeps
    monkeypatch.setattr(solvers, "_active_set_lasso", lambda gram, lin, lam_w, beta, rounds:
                        (beta.copy(), np.zeros(len(beta), dtype=bool)))
    path = select_lambda(ds, w, loss, [0.0, 5.0], BicConfig(),
                         FitConfig(loss=loss, max_iter=steps))
    assert not path.entries[0].failed
    assert path.entries[1].failed
    assert "did not converge" in path.entries[1].error
    assert path.best_index == 0


def test_select_lambda_normalizes_once_per_path(monkeypatch):
    ds, w = problem(seed=2, n=100, p=3)
    loss = LossKind("expectile", tau=0.4)
    grid = lambda_grid(ds.n)
    real = tuning.objective_value
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tuning, "objective_value", counted)
    path = select_lambda(ds, w, loss, grid, BicConfig())
    assert len(calls) == 1 + len(grid)
    pilot = fit_unpenalized(ds, w, loss)
    for e in path.entries:
        assert e.score == bic_score(ds, w, e.result, pilot, loss, BicConfig())


def test_bic_path_csv(tmp_path):
    ds, w = problem(seed=1, n=100, p=3)
    loss = LossKind("expectile", tau=0.4)
    path = select_lambda(ds, w, loss, lambda_grid(ds.n), BicConfig())
    out = tmp_path / "path.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,score,support_size"
    assert len(lines) == 21


def test_bic_config_validation():
    with pytest.raises(ValueError):
        BicConfig(penalty_mode="nope")

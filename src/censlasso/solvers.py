"""Weighted unpenalized and adaptive-LASSO estimation for all loss families.

Responses are always log follow-up times; each observation's loss term is
multiplied by its IPCW weight.  Every loss is a sum over levels, each a
(tau, scale, intercept) triple (`loss_levels`): median is twice the check
loss at 1/2, quantile and expectile have one level at their tau, composite
quantile has one level per tau_j with its own intercept.  The fits'
objectives, `objective_value`, the BIC scores and the `kkt_residual`
certificate all evaluate the loss level by level through it.  Two solver
routes:

* median / quantile / composite quantile: linear programming.  The primal
  splits residuals and penalized coefficients into nonnegative parts; what is
  actually handed to HiGHS is the LP dual (n variables per level, ~2p rows),
  which is dramatically faster at large n, and the coefficients are read
  back off the constraint marginals.  Strong duality is checked on every
  solve.

* expectile / least squares: Newton steps on the residual-sign pattern.
  The loss is piecewise quadratic, so with the signs frozen the fit is a
  penalized least-squares problem in the p x p Gram matrix: solved directly
  without a penalty, by cyclic coordinate descent with soft-thresholding
  (exact zeros) with one.  A backtracking step on the true objective follows,
  and the fit is exact once the signs repeat.  Pilot and penalized fits,
  with or without an intercept, all take this one route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .data import SurvivalDataset
from .errors import DegenerateWeights, DimensionMismatch, NoConvergence, SolverError
from .kaplan_meier import IpcwWeights
from .losses import LossKind, expectile_grad, pointwise_loss, check_loss

LP_ZERO_THRESHOLD = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by the unpenalized and penalized fits."""

    loss: LossKind
    lam: float = 0.0
    gamma: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-8
    weight_floor: float | None = None
    beta_floor: float = 1e-10
    fit_intercept: bool = False

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be > 0")
        if self.tol <= 0.0:
            raise ValueError("tol must be > 0")
        if self.beta_floor <= 0.0:
            raise ValueError("beta_floor must be > 0")

    def replace(self, **kwargs) -> "FitConfig":
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class EstimatorResult:
    """Fitted coefficients with their support and solve diagnostics."""

    beta: np.ndarray
    intercepts: np.ndarray
    objective: float
    iterations: int
    converged: bool
    duality_gap: float | None = None

    def __post_init__(self):
        self.beta.setflags(write=False)
        self.intercepts.setflags(write=False)
        if not np.isfinite(self.objective):
            raise SolverError("non-finite objective in fit result")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.flatnonzero(self.beta))

    def to_dict(self) -> dict:
        return {
            "beta": [float(b) for b in self.beta],
            "intercepts": [float(b) for b in self.intercepts],
            "support": sorted(self.support),
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "duality_gap": None if self.duality_gap is None else float(self.duality_gap),
        }


def adaptive_weights(beta_tilde, gamma: float = 1.0, beta_floor: float = 1e-10) -> np.ndarray:
    """Per-coordinate penalty weights 1 / max(|beta_tilde_j|, floor)^gamma."""
    bt = np.abs(np.asarray(beta_tilde, dtype=float))
    return np.maximum(bt, beta_floor) ** (-gamma)


def _active_rows(dataset: SurvivalDataset, weights: IpcwWeights):
    w = np.asarray(weights.w, dtype=float)
    if len(w) != dataset.n:
        raise DimensionMismatch("weights and dataset disagree on n")
    keep = w > 0.0
    if not np.any(keep):
        raise DegenerateWeights("no observation carries positive weight")
    z = np.log(dataset.y[keep])
    return dataset.x[keep], z, w[keep]


@dataclass(frozen=True)
class LossLevel:
    """One level of a loss: scale * rho_tau(z - intercept - x'beta) per row.

    rho_tau is the check function, or for an expectile loss the asymmetric
    square |tau - 1{u < 0}| u^2.
    """

    loss: LossKind
    tau: float
    scale: float
    intercept: float

    def residuals(self, z, fitted) -> np.ndarray:
        return z - self.intercept - fitted

    def values(self, resid) -> np.ndarray:
        """Each row's loss at its residual."""
        if self.loss.family == LossKind.EXPECTILE:
            return pointwise_loss(self.loss, resid)
        return self.scale * check_loss(self.tau, resid)

    def slopes(self, resid, zero_tol: float):
        """Derivative of each row's loss in its fitted value, as [lo, hi].

        A check loss has the point value away from its kink and the whole
        interval scale * [-tau, 1 - tau] at residuals within zero_tol of 0;
        the expectile loss is differentiable, so lo = hi.
        """
        if self.loss.family == LossKind.EXPECTILE:
            g = expectile_grad(self.tau, resid)
            return g, g
        point = np.where(resid < 0.0, 1.0 - self.tau, -self.tau)
        at_zero = np.abs(resid) <= zero_tol
        lo = np.where(at_zero, -self.tau, point)
        hi = np.where(at_zero, 1.0 - self.tau, point)
        return self.scale * lo, self.scale * hi


def loss_levels(loss: LossKind, intercepts=None) -> list[LossLevel]:
    """How a loss splits into levels, with their intercepts.

    Median is one level (tau 1/2, scale 2), quantile and expectile one at
    their tau, composite quantile one per tau_j, each with its own
    intercept.  Without intercepts (None, or an empty sequence for the
    single-level losses) every level's intercept is 0.
    """
    if loss.family == LossKind.COMPOSITE_QUANTILE:
        if intercepts is None:
            intercepts = np.zeros(loss.n_levels)
        if len(intercepts) != loss.n_levels:
            raise DimensionMismatch("composite quantile needs one intercept per level")
        return [LossLevel(loss, float(t), 1.0, float(b))
                for t, b in zip(loss.taus, intercepts)]
    b = float(intercepts[0]) if intercepts is not None and len(intercepts) else 0.0
    if loss.family == LossKind.MEDIAN:
        return [LossLevel(loss, 0.5, 2.0, b)]
    return [LossLevel(loss, loss.tau, 1.0, b)]


def weighted_loss(loss: LossKind, w, z, fitted, intercepts=None) -> float:
    """Sum over levels and rows of w_i times the loss at z_i - b - fitted_i."""
    total = 0.0
    for level in loss_levels(loss, intercepts):
        total += float(w @ level.values(level.residuals(z, fitted)))
    return total


def _solve_lp_family(x, z, w, loss: LossKind, lam_w, fit_intercept: bool):
    """Fit an LP-family loss through the dual linear program.

    Dual variables a_{ij} (one per observation and quantile level) maximize
    sum z_i a_{ij} subject to box constraints from the check-loss slopes, one
    zero-sum row per intercept, and |X' sum_j a_{.j}| <= lam_w coefficientwise
    (equalities when the penalty vanishes).  The coefficient vector is the
    (negated) marginal vector of those rows.
    """
    levels = loss_levels(loss)
    n_levels = len(levels)
    has_intercepts = fit_intercept or loss.family == LossKind.COMPOSITE_QUANTILE
    n_lp_intercepts = n_levels if has_intercepts else 0
    n, p = x.shape
    lam_w = np.asarray(lam_w, dtype=float)
    penalized = bool(np.any(lam_w > 0.0))

    lo = np.concatenate([-lv.scale * w * (1.0 - lv.tau) for lv in levels])
    hi = np.concatenate([lv.scale * w * lv.tau for lv in levels])
    bounds = np.column_stack([lo, hi])
    c = -np.tile(z, n_levels)

    xt_sum = sp.hstack([sp.csr_matrix(x.T)] * n_levels, format="csr")
    eq_rows = []
    if n_lp_intercepts:
        ones = sp.kron(sp.identity(n_levels, format="csr"), np.ones((1, n)), format="csr")
        eq_rows.append(ones)

    if penalized:
        a_ub = sp.vstack([xt_sum, -xt_sum], format="csr")
        b_ub = np.concatenate([lam_w, lam_w])
        a_eq = sp.vstack(eq_rows, format="csr") if eq_rows else None
        b_eq = np.zeros(n_lp_intercepts) if eq_rows else None
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
    else:
        a_eq = sp.vstack(eq_rows + [xt_sum], format="csr")
        b_eq = np.zeros(n_lp_intercepts + p)
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")

    if res.x is None:
        raise SolverError(f"LP solve failed: {res.message}")
    if penalized:
        marg = res.ineqlin.marginals
        beta = -(marg[:p] - marg[p:2 * p])
        intercepts = -res.eqlin.marginals[:n_lp_intercepts] if n_lp_intercepts else np.zeros(0)
    else:
        marg = res.eqlin.marginals
        intercepts = -marg[:n_lp_intercepts]
        beta = -marg[n_lp_intercepts:n_lp_intercepts + p]
    beta = np.where(np.abs(beta) <= LP_ZERO_THRESHOLD, 0.0, beta)
    dual_objective = -res.fun
    return beta, np.asarray(intercepts, dtype=float), int(res.nit), res.status == 0, dual_objective


# --- expectile / least squares: Newton on the frozen sign pattern ----------

def _gram_lasso(gram, lin, lam_w, beta, tol, max_sweeps):
    """Minimize b'Gb - 2c'b + sum_j lam_w_j |b_j| from the start beta.

    Without a penalty this is the linear system Gb = c.  Otherwise cyclic
    coordinate descent with soft-thresholding runs on G itself, O(p^2) per
    sweep whatever n is; it has converged once no coordinate moves by tol.
    """
    if not np.any(lam_w > 0.0):
        try:
            return np.linalg.solve(gram, lin), True
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, lin, rcond=None)[0], True
    b = np.array(beta, dtype=float)
    slack = lin - gram @ b
    diag = np.diag(gram)
    for _ in range(int(max_sweeps)):
        max_delta = 0.0
        for j in range(len(b)):
            old = b[j]
            rho = slack[j] + diag[j] * old
            new = 0.0
            if diag[j] > 0.0 and abs(rho) > 0.5 * lam_w[j]:
                new = (rho - np.copysign(0.5 * lam_w[j], rho)) / diag[j]
            if new != old:
                slack -= gram[:, j] * (new - old)
                b[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            return b, True
    return b, False


def _expectile_newton(x, z, w, tau, lam_w, beta, tol, max_iter):
    """Weighted expectile (adaptive) lasso by Newton steps on sign patterns.

    The loss w_i |tau - 1{r_i < 0}| r_i^2 is quadratic while the residual
    signs stay put, so each step freezes them, minimizes the resulting
    penalized quadratic exactly (`_gram_lasso`), and backtracks on the true
    objective.  Once the signs at the step's target equal the frozen ones,
    the frozen problem's optimality conditions are the true ones and the
    target is the exact minimizer.  Returns (beta, steps, converged); a step
    that cannot lower the objective ends the fit unconverged and is not taken.
    """

    def objective(b):
        r = z - x @ b
        asym = np.where(r < 0.0, 1.0 - tau, tau)
        return float(w @ (asym * r * r) + lam_w @ np.abs(b)), r

    beta = np.array(beta, dtype=float)
    obj, r = objective(beta)
    for step in range(1, int(max_iter) + 1):
        negative = r < 0.0
        xa = x * (w * np.where(negative, 1.0 - tau, tau))[:, None]
        target, descended = _gram_lasso(xa.T @ x, xa.T @ z, lam_w, beta, tol, max_iter)
        new_obj, new_r = objective(target)
        if np.array_equal(new_r < 0.0, negative):
            # the frozen quadratic is exact on the segment: no backtracking
            beta, obj, r = target, new_obj, new_r
            if descended:
                return beta, step, True
            continue
        direction, t = target - beta, 1.0
        while new_obj >= obj:
            t *= 0.5
            trial = beta + t * direction
            if np.array_equal(trial, beta):
                return beta, step, False
            new_obj, new_r = objective(trial)
        beta, obj, r = beta + t * direction, new_obj, new_r
    return beta, int(max_iter), False


# --- public fitting API ----------------------------------------------------

def fit_unpenalized(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    loss: LossKind | None = None,
    config: FitConfig | None = None,
) -> EstimatorResult:
    """Minimize the IPCW-weighted empirical loss over the coefficient vector.

    Composite quantile jointly fits its level intercepts and the shared
    slope; other families fit an intercept only when config.fit_intercept.
    """
    if config is None:
        config = FitConfig(loss=loss if loss is not None else LossKind(LossKind.MEDIAN))
    if loss is None:
        loss = config.loss
    x, z, w = _active_rows(dataset, weights)
    p = x.shape[1]
    return _fit(x, z, w, loss, np.zeros(p), config)


def fit_adaptive_lasso(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    config: FitConfig,
    beta_tilde,
) -> EstimatorResult:
    """Adaptive-LASSO fit: empirical loss plus lam * sum_j |beta_j| / |beta_tilde_j|^gamma.

    beta_tilde is the pilot (unpenalized) estimate on the same data; pilot
    coordinates at zero are floored so the penalty stays defined (and in
    effect pins those coordinates to zero).  Intercepts are never penalized.
    """
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    x, z, w = _active_rows(dataset, weights)
    if len(beta_tilde) != x.shape[1]:
        raise DimensionMismatch("beta_tilde length must equal p")
    omega = adaptive_weights(beta_tilde, config.gamma, config.beta_floor)
    lam_w = config.lam * omega
    return _fit(x, z, w, config.loss, lam_w, config, beta_start=beta_tilde)


def _fit(x, z, w, loss, lam_w, config, beta_start=None) -> EstimatorResult:
    gap = None
    if loss.is_lp_family:
        beta, intercepts, steps, converged, dual_obj = _solve_lp_family(
            x, z, w, loss, lam_w, config.fit_intercept
        )
        objective = weighted_loss(loss, w, z, x @ beta, intercepts)
        objective += float(lam_w @ np.abs(beta))
        gap = abs(objective - dual_obj)
    else:
        # an intercept is one more column, never penalized
        k = int(config.fit_intercept)
        start = np.zeros(x.shape[1]) if beta_start is None else beta_start
        if k:
            x = np.column_stack([np.ones(len(z)), x])
            lam_w = np.concatenate(([0.0], lam_w))
            start = np.concatenate(([0.0], start))
        coef, steps, converged = _expectile_newton(
            x, z, w, loss.tau, lam_w, start, config.tol, config.max_iter
        )
        # the intercept, if any, is inside x @ coef
        objective = weighted_loss(loss, w, z, x @ coef) + float(lam_w @ np.abs(coef))
        beta, intercepts = coef[k:], coef[:k]
    if not converged:
        raise NoConvergence(f"{loss.label()} fit did not converge ({steps} iterations)")
    if gap is not None and gap > 1e-6 * max(1.0, abs(objective)):
        raise SolverError(f"primal-dual objective mismatch: gap={gap}")
    return EstimatorResult(
        beta=beta,
        intercepts=intercepts,
        objective=objective,
        iterations=steps,
        converged=True,
        duality_gap=gap,
    )


def objective_value(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    loss: LossKind,
    lam: float,
    adaptive_weights_vec,
    beta,
    intercepts=(),
) -> float:
    """Exact penalized objective at the given coefficients (naive summation)."""
    beta = np.asarray(beta, dtype=float)
    omega = np.asarray(adaptive_weights_vec, dtype=float)
    if len(beta) != dataset.p or len(omega) != dataset.p:
        raise DimensionMismatch("beta and adaptive weights must have length p")
    w = np.asarray(weights.w, dtype=float)
    if len(w) != dataset.n:
        raise DimensionMismatch("weights and dataset disagree on n")
    total = weighted_loss(loss, w, np.log(dataset.y), dataset.x @ beta, intercepts)
    return total + float(lam * (omega @ np.abs(beta)))


def kkt_residual(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    loss: LossKind,
    lam: float,
    adaptive_weights_vec,
    result: EstimatorResult,
    zero_tol: float = 1e-7,
) -> float:
    """Max over coordinates of the distance of 0 from the subdifferential.

    Each level contributes its rows' derivative intervals (`LossLevel.slopes`:
    check-loss residuals within zero_tol of 0 take their whole interval),
    summed per column.  Intercept coordinates are included without penalty.
    """
    x, z, w = _active_rows(dataset, weights)
    p, n_int = x.shape[1], len(result.intercepts)
    levels = loss_levels(loss, result.intercepts)
    # every level's columns: x, then its own intercept column
    cols = np.column_stack([x, np.ones(len(z))])
    pos, neg = np.maximum(cols, 0.0), np.minimum(cols, 0.0)
    lo = np.zeros(p + len(levels))
    hi = np.zeros(p + len(levels))
    fitted = x @ result.beta
    for k, level in enumerate(levels):
        d_lo, d_hi = level.slopes(level.residuals(z, fitted), zero_tol)
        d_lo, d_hi = w * d_lo, w * d_hi
        # sum_i c_i [d_lo_i, d_hi_i]: a negative c_i swaps the ends
        at = np.r_[:p, p + k]
        lo[at] += pos.T @ d_lo + neg.T @ d_hi
        hi[at] += pos.T @ d_hi + neg.T @ d_lo
    lo, hi = lo[:p + n_int], hi[:p + n_int]
    coef = np.concatenate([result.beta, result.intercepts])
    lam_w = np.concatenate([lam * np.asarray(adaptive_weights_vec, dtype=float),
                            np.zeros(n_int)])
    # the penalty's subdifferential: lam_w * sign(b), or [-lam_w, lam_w] at 0
    at_zero = coef == 0.0
    lo += np.where(at_zero, -lam_w, lam_w * np.sign(coef))
    hi += np.where(at_zero, lam_w, lam_w * np.sign(coef))
    return float(max(lo.max(initial=0.0), -hi.min(initial=0.0)))

"""Weighted unpenalized and adaptive-LASSO estimation for all loss families.

Responses are always log follow-up times; each observation's loss term is
multiplied by its IPCW weight.  Every loss is a sum over levels, each a
(tau, scale, intercept) triple (`loss_levels`): median is twice the check
loss at 1/2, quantile and expectile have one level at their tau, composite
quantile has one level per tau_j with its own intercept.  The fits'
objectives, `objective_value`, the BIC scores and the `kkt_residual`
certificate all evaluate the loss level by level through it; every fit
carries its KKT residual.  Two solver routes:

* median / quantile / composite quantile: a Frisch-Newton interior point
  on the bounded dual LP (Portnoy & Koenker 1997, with Mehrotra's
  predictor-corrector).  The dual has one variable per observation and
  level, boxed by the check-loss slopes times the weight, one zero-sum
  equality per coefficient and intercept, and the adaptive-L1 penalty as one
  pseudo-row per penalized coordinate (response 0, box [-lam_j, lam_j]).
  Each iteration solves one (p + J) x (p + J) system; `max_iter` bounds the
  iterations and `tol` is the relative complementarity gap at which they
  stop.  Two kinds of coordinate are set to 0 first: one whose penalty is
  beyond what its dual constraint can reach (0 at every optimum), and an
  unpenalized one whose column depends on the intercepts and earlier
  unpenalized columns (it adds nothing to the fit, so some optimum has it
  at 0, and keeping it would make the system singular).  A vertex polish
  then makes the fit exact: p + J rows ranked basic by the interior
  solution fix the coefficients (a basic pseudo-row is an exact zero), the
  other duals go to the ends of their boxes by residual sign, and the basic
  duals must come out inside their boxes.  That check is the
  optimality certificate, and its dual objective gives the duality gap.  A
  fit whose iterations stop short or whose vertex fails the check raises
  `NoConvergence`.  Fits on the same rows that differ only in their
  penalties (a BIC path, `fit_adaptive_lasso_path`) run as one stack in
  lockstep (Koenker & Ng 2005): per iteration one batched solve of their
  normal matrices and per-problem step lengths; each keeps its own
  vertex, certificates, iteration count and failure.  A single fit is a
  stack of one.

* expectile / least squares: Newton steps on the residual-sign pattern.
  The loss is piecewise quadratic, so with the signs frozen the fit is a
  penalized least-squares problem in the p x p Gram matrix: solved directly
  without a penalty, by cyclic coordinate descent with soft-thresholding
  (exact zeros) with one.  A backtracking step on the true objective follows,
  and the fit is exact once the signs repeat.  Pilot and penalized fits,
  with or without an intercept, all take this one route.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import (
    CensLassoError,
    DegenerateWeights,
    DimensionMismatch,
    NoConvergence,
    SolverError,
)
from .kaplan_meier import IpcwWeights
from .losses import LossKind, expectile_grad, pointwise_loss, check_loss


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by the unpenalized and penalized fits."""

    loss: LossKind
    lam: float = 0.0
    gamma: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-8
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
    kkt_residual: float | None = None

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
            "kkt_residual": None if self.kkt_residual is None else float(self.kkt_residual),
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


# --- median / quantile / composite quantile: Frisch-Newton on the dual -----

# share of the way to the boundary of the box an interior-point step may go
_STEP_SHARE = 0.9995
# relative size below which a residual, or a coefficient's largest
# contribution to a fitted value, is rounding
_ROUNDING = 1e-12
# share of a row's (or column's) norm below which what is left of it after
# projecting out the ones before it counts as linearly dependent on them
_DEPENDENT = 1e-9
# share of the largest diagonal entry added to a singular normal matrix
_RIDGE = 1e-12
# doubles per block of design rows that is copied at a time
_BLOCK = 1 << 18
# doubles per stacked vector of problems that run in lockstep: a stack's
# iterations hold a few dozen such vectors
_STACK = 1 << 14


def _row_blocks(x, stack=1):
    """Slices covering x's rows, a few MB of x (times the stack's size) at a time."""
    step = max(1, _BLOCK // max(x.shape[1] * stack, 1))
    return [slice(s, s + step) for s in range(0, len(x), step)]


class _DualRows:
    """The rows of bounded dual LPs: max resp'a s.t. M'a = 0, lo <= a <= hi.

    Coordinates theta are the slopes of x's columns `cols`, then one
    intercept per level when the fit has intercepts.  Row (k, i), stored at
    k * n + i, is observation i at level k: design (x_i[cols], e_k), response
    z_i, box scale * w_i * [tau_k - 1, tau_k].  Then one pseudo-row per
    penalized coordinate j: design e_j, response 0, box [-lam_j, lam_j].
    Problems that share M and resp and differ only in their penalties form a
    stack: lam_w is (len(cols),) for one problem and then lo and hi are
    vectors, or (B, len(cols)) for B problems that penalize the same
    coordinates and then lo and hi have one row per problem.  `fitted` and
    `adjoint` act on the last axis and `normal` on each row of a 2-d q, so
    one call serves a stack.
    Neither M nor x[:, cols] is formed: every level shares x, and products
    with x run over all its columns or over blocks of its rows.
    """

    def __init__(self, x, z, w, levels, has_intercepts, lam_w, cols):
        self.x, self.cols, self.n_levels = x, cols, len(levels)
        self.all_cols = len(cols) == x.shape[1]
        n = len(x)
        self.n_obs = self.n_levels * n
        self.p = len(cols)
        self.m = self.p + (self.n_levels if has_intercepts else 0)
        self.pen = np.flatnonzero(np.any(lam_w > 0.0, axis=tuple(range(lam_w.ndim - 1))))
        # the largest |entry| of each design column
        self.col_reach = np.r_[np.maximum(x.max(axis=0, initial=0.0),
                                          -x.min(axis=0, initial=0.0))[cols],
                               np.ones(self.m - self.p)]
        self.resp = np.concatenate([np.tile(z, self.n_levels), np.zeros(len(self.pen))])
        stack = lam_w.shape[:-1]
        obs_lo = np.concatenate([-lv.scale * (1.0 - lv.tau) * w for lv in levels])
        obs_hi = np.concatenate([lv.scale * lv.tau * w for lv in levels])
        self.lo = np.concatenate([np.broadcast_to(obs_lo, stack + obs_lo.shape),
                                  -lam_w[..., self.pen]], axis=-1)
        self.hi = np.concatenate([np.broadcast_to(obs_hi, stack + obs_hi.shape),
                                  lam_w[..., self.pen]], axis=-1)

    def problem(self, k):
        """Problem k of a stack, alone."""
        one = copy.copy(self)
        one.lo, one.hi = self.lo[k], self.hi[k]
        return one

    def _per_level(self, v):
        return v[..., :self.n_obs].reshape(v.shape[:-1] + (self.n_levels, -1))

    def _row_sums(self, v):
        """Per observation, v summed over the levels."""
        if self.n_levels == 1:
            return v[..., :self.n_obs]
        return self._per_level(v).sum(axis=-2)

    def _x_cols(self, rows):
        return self.x[rows] if self.all_cols else self.x[rows][:, self.cols]

    def fitted(self, theta):
        """M theta."""
        stack = theta.shape[:-1]
        slopes = theta[..., :self.p]
        if not self.all_cols:
            slopes = np.zeros(stack + (self.x.shape[1],))
            slopes[..., self.cols] = theta[..., :self.p]
        rows = slopes @ self.x.T
        if self.m > self.p:  # one intercept per level (only these have levels)
            rows = (rows[..., None, :] + theta[..., self.p:, None]).reshape(stack + (-1,))
        if not self.pen.size:
            return rows
        return np.concatenate([rows, theta[..., self.pen]], axis=-1)

    def adjoint(self, v):
        """M'v."""
        xv = self._row_sums(v) @ self.x
        out = np.empty(v.shape[:-1] + (self.m,))
        out[..., :self.p] = xv if self.all_cols else xv[..., self.cols]
        if self.m > self.p:
            out[..., self.p:] = self._per_level(v).sum(axis=-1)
        if self.pen.size:
            out[..., self.pen] += v[..., self.n_obs:]
        return out

    def normal(self, q):
        """M' diag(q) M, for a stack of q's (B, rows) -> (B, m, m)."""
        g = np.zeros((len(q), self.m, self.m))
        row_q = self._row_sums(q)
        for rows in _row_blocks(self.x, len(q)):
            xb = self._x_cols(rows)
            g[:, :self.p, :self.p] += np.matmul(xb.T, xb * row_q[:, rows, None])
        if self.m > self.p:
            per_level = self._per_level(q)
            cross = (per_level @ self.x)[..., self.cols]
            g[:, self.p:, :self.p] = cross
            g[:, :self.p, self.p:] = cross.transpose(0, 2, 1)
            at = np.arange(self.p, self.m)
            g[:, at, at] = per_level.sum(axis=2)
        g[:, self.pen, self.pen] += q[:, self.n_obs:]
        return g

    def design(self, rows):
        """The rows of M with the given indices, as a len(rows) x m array."""
        rows = np.asarray(rows)
        out = np.zeros((len(rows), self.m))
        obs = rows < self.n_obs
        level, i = np.divmod(rows[obs], len(self.x))
        out[np.flatnonzero(obs), :self.p] = self._x_cols(i)
        if self.m > self.p:
            out[np.flatnonzero(obs), self.p + level] = 1.0
        out[np.flatnonzero(~obs), self.pen[rows[~obs] - self.n_obs]] = 1.0
        return out


def _step_length(fastest):
    """Per row, the largest t <= 1 short of the boundary, given the fastest
    rate max_i -dv_i / v_i at which some v + t dv reaches 0; as a column."""
    return (_STEP_SHARE / np.maximum(fastest, _STEP_SHARE))[:, None]


def _row_dot(u, v):
    """u_b'v_b for each row b."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _solve_stack(normal, rhs):
    """Solve normal[b] d_b = rhs[b] for every problem b; returns (d, singular).

    Penalized columns that depend on each other leave a direction that only
    their vanishing pseudo-row weights pin down: a singular system is damped
    in place (so later solves with it see the damping) and solved again, and
    the problems whose systems are still singular are listed, with d_b = 0.
    """
    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        pass
    d, singular = np.zeros_like(rhs), []
    for b, (g, r) in enumerate(zip(normal, rhs)):
        try:
            d[b] = np.linalg.solve(g, r)
            continue
        except np.linalg.LinAlgError:
            g[np.diag_indices_from(g)] += _RIDGE * np.max(np.diag(g))
        try:
            d[b] = np.linalg.solve(g, r)
        except np.linalg.LinAlgError:
            singular.append(b)
    return d, singular


def _frisch_newton(lp: _DualRows, normal_u, tol, max_iter):
    """Mehrotra predictor-corrector iterations on a stack of bounded duals.

    In x = a - lo, with u = hi - lo and s = u - x, the dual is
    min -resp'x s.t. M'x = -M'lo, 0 <= x <= u.  Its own dual has the
    coefficients theta and z, w >= 0 with z - w = M theta - resp: z and w are
    the negative and positive parts of the residuals.  a = 0 is a strictly
    feasible start, theta starts at a u-weighted least-squares fit (normal_u
    is the stack of M' diag(u) M), and every step keeps both sides feasible.
    The B problems of lp (rows of lp.lo) move in lockstep: each iteration
    forms their m x m matrices M' Q M, solves them as one stack twice
    (predictor, then corrector) and takes each problem's own step lengths.
    A problem stops once its complementarity gap x'z + s'w is at most tol
    times its objective, or when it cannot go on.  Returns (a, theta,
    iterations, failures), a row or entry per problem: failures[b] is None
    when problem b met tol, else why its iterations stopped.
    """
    lo, resp = lp.lo, lp.resp
    x, s = -lo, lp.hi.copy()
    rhs = lp.adjoint((lp.hi - lo) * resp)
    theta = np.stack([np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(normal_u, rhs)])
    r = resp - lp.fitted(theta)
    # z - w = -r exactly, both strictly positive
    shift = 1e-3 * np.maximum(np.mean(np.abs(r), axis=1, keepdims=True), 1e-12)
    z, w = np.maximum(-r, 0.0) + shift, np.maximum(r, 0.0) + shift
    a_out, theta_out = np.empty_like(x), np.empty_like(theta)
    steps, failures = np.zeros(len(x), dtype=int), [None] * len(x)
    live = np.arange(len(x))  # the problems still iterating, in the rows of the state arrays
    stuck = []  # rows that hit a singular system: they stay put and stop at the next check
    for it in range(int(max_iter) + 1):
        gap = _row_dot(z, x) + _row_dot(w, s)
        met = gap <= tol * np.maximum(1.0, np.abs((lo + x) @ resp))
        stop = met | ~np.isfinite(gap)
        if stuck or it == max_iter:
            stop[stuck if it < max_iter else slice(None)] = True
        if stop.any():
            for k in np.flatnonzero(stop):
                b = live[k]
                a_out[b], theta_out[b] = lo[k] + x[k], theta[k]
                if failures[b] is None:  # a singular system is recorded when met
                    steps[b] = it
                    if not met[k]:
                        failures[b] = f"did not converge ({it} iterations)"
            keep = ~stop
            live, lo, x, s, z, w, theta, gap = (v[keep] for v in (live, lo, x, s, z, w, theta, gap))
            if not len(live):
                break
        q = 1.0 / (z / x + w / s)
        normal = lp.normal(q)
        stuck = []

        def direction(sig_x, sig_s):
            # x dz + z dx = sig_x, s dw - w dx = sig_s, M'dx = 0, dz - dw = M dtheta
            g = sig_x / x - sig_s / s
            dtheta, singular = _solve_stack(normal, lp.adjoint(q * g))
            stuck.extend(singular)
            dx = q * (g - lp.fitted(dtheta))
            return dtheta, dx, (sig_x - z * dx) / x, (sig_s + w * dx) / s

        def lengths(dx, dz, dw):
            # primal and dual step lengths keeping x, s and z, w positive
            return (_step_length(np.maximum(-np.min(dx / x, axis=1), np.max(dx / s, axis=1))),
                    _step_length(-np.minimum(np.min(dz / z, axis=1), np.min(dw / w, axis=1))))

        dtheta, dx, dz, dw = direction(-x * z, -s * w)
        tp, td = lengths(dx, dz, dw)
        centre = (np.minimum(tp, td) < 1.0)[:, 0]
        centred = np.count_nonzero(centre)
        if centred:
            # Mehrotra's centering: aim at mu = gap (affine gap / gap)^3 / pairs
            affine = _row_dot(z + td * dz, x + tp * dx) + _row_dot(w + td * dw, s - tp * dx)
            mu = (gap * (affine / gap) ** 3 / (2 * x.shape[1]))[:, None]
            corrected = direction(mu - x * z - dx * dz, mu - s * w + dx * dw)
            if centred == len(centre):
                dtheta, dx, dz, dw = corrected
            else:
                dtheta, dx, dz, dw = (np.where(centre[:, None], new, old) for new, old
                                      in zip(corrected, (dtheta, dx, dz, dw)))
            tp, td = lengths(dx, dz, dw)
        if stuck:
            for k in set(stuck):
                failures[live[k]], steps[live[k]] = f"hit a singular system after {it} iterations", it
            tp[stuck], td[stuck] = 0.0, 0.0
        x, s = x + tp * dx, s - tp * dx
        theta, z, w = theta + td * dtheta, z + td * dz, w + td * dw
    return a_out, theta_out, steps, failures


def _first_independent(vectors, count, dim, want):
    """Positions, in order, of the first `want` of `count` vectors that are
    linearly independent; vectors(positions) gives them as rows of length dim.

    Vectors are taken a block at a time: each block is projected off the
    ones chosen so far at once, and those left with nothing are passed over
    together, so repeated vectors cost no work of their own.
    """
    basis, chosen = np.zeros((want, dim)), []
    step = max(2 * dim, 64)
    for start in range(0, count, step):
        if len(chosen) == want:
            break
        rows = vectors(np.arange(start, min(start + step, count)))
        norms = np.linalg.norm(rows, axis=1)
        for _ in range(2):  # Gram-Schmidt, twice for stability
            known = basis[:len(chosen)]
            rows -= (rows @ known.T) @ known
        live = np.flatnonzero(np.linalg.norm(rows, axis=1) > _DEPENDENT * norms)
        # the usual case: the first live vectors are independent, which one
        # QR shows, as R's diagonal is what each keeps beyond those before it
        head = live[:want - len(chosen)]
        if len(head) <= dim:
            q, r = np.linalg.qr(rows[head].T)
            if np.all(np.abs(np.diag(r)) > _DEPENDENT * norms[head]):
                basis[len(chosen):len(chosen) + len(head)] = q.T
                chosen.extend(start + head)
                continue
        while live.size and len(chosen) < want:
            i, live = live[0], live[1:]
            v = rows[i] - basis[:len(chosen)].T @ (basis[:len(chosen)] @ rows[i])
            basis[len(chosen)] = v / np.linalg.norm(v)
            chosen.append(start + i)
            rows[live] -= np.outer(rows[live] @ basis[len(chosen) - 1], basis[len(chosen) - 1])
            live = live[np.linalg.norm(rows[live], axis=1) > _DEPENDENT * norms[live]]
    return np.array(chosen, dtype=int)


def _independent_rows(lp: _DualRows, order, cols):
    """The first len(cols) rows in `order` whose designs, restricted to the
    columns `cols`, are linearly independent (None if there are fewer)."""
    chosen = _first_independent(lambda at: lp.design(order[at])[:, cols],
                                len(order), len(cols), len(cols))
    return order[chosen] if len(chosen) == len(cols) else None


def _dependent_columns(lp: _DualRows, normal_u):
    """Unpenalized slope coordinates whose columns of M are linearly
    dependent on the intercepts' and on the unpenalized columns before them.

    Only these can leave M without full column rank, since a penalized
    coordinate has its own pseudo-row; they add nothing to the fit and no
    penalty, so an optimum leaves them at 0.  normal_u = M' diag(u) M with
    u > 0 answers at once when the columns are clearly independent; else
    the triangular factor of the observation rows on these columns, which
    has their inner products, is built a block of rows at a time and its
    columns are tried in turn.
    """
    free = np.r_[lp.p:lp.m, np.setdiff1d(np.arange(lp.p), lp.pen)]
    sub = normal_u[np.ix_(free, free)]
    try:
        if np.all(np.diag(np.linalg.cholesky(sub)) ** 2 > 1e-6 * np.diag(sub)):
            return np.zeros(0, dtype=int)
    except np.linalg.LinAlgError:
        pass
    r = np.zeros((0, len(free)))
    n = len(lp.x)
    for k in range(lp.n_levels):
        for rows in _row_blocks(lp.x):
            block = lp.design(k * n + np.arange(n)[rows])[:, free]
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
    kept = _first_independent(lambda at: r[:, at].T, len(free), len(r), len(free))
    return np.setdiff1d(free, free[kept])


def _vertex_point(lp: _DualRows, obs, pinned):
    """The point with the pinned coordinates at exactly 0 and residual 0 on
    the observation rows `obs`; returns (theta, residuals, flat), `flat`
    marking the residuals that are 0 up to rounding."""
    free = np.setdiff1d(np.arange(lp.m), pinned)
    theta = np.zeros(lp.m)
    theta[free] = np.linalg.solve(lp.design(obs)[:, free], lp.resp[obs])
    fitted = lp.fitted(theta)
    resid = lp.resp - fitted
    return theta, resid, np.abs(resid) <= _ROUNDING * (np.abs(lp.resp) + np.abs(fitted) + 1.0)


def _vertex(lp: _DualRows, basic, a_interior):
    """The vertex whose basic rows are `basic`, if its duals certify it.

    Basic observation rows get residual 0 and a basic pseudo-row pins its
    coordinate to exactly 0.  Every non-basic dual sits at the end of its
    box that its residual's sign selects (a residual 0 up to rounding, as at
    ties and duplicated rows, keeps its interior dual), and the basic duals
    solve M'a = 0.  The vertex is optimal iff they lie in their boxes.  A
    coordinate that is 0 up to rounding at a degenerate vertex is then
    pinned too, as long as the same duals certify the re-solved point.
    Returns (theta, dual objective) or None.
    """
    obs = basic[basic < lp.n_obs]
    pinned = lp.pen[basic[basic >= lp.n_obs] - lp.n_obs]
    free = np.setdiff1d(np.arange(lp.m), pinned)
    try:
        theta, resid, flat = _vertex_point(lp, obs, pinned)
        a = np.where(flat, a_interior, np.where(resid > 0.0, lp.hi, lp.lo))
        a[basic] = 0.0
        pull = lp.adjoint(a)
        design = lp.design(obs)
        a[obs] = np.linalg.solve(design[:, free].T, -pull[free])
    except np.linalg.LinAlgError:
        return None
    a[lp.n_obs + np.searchsorted(lp.pen, pinned)] = -(pull[pinned] + design[:, pinned].T @ a[obs])
    slack = 1e-9 * float(np.max(lp.hi[:lp.n_obs] - lp.lo[:lp.n_obs]))
    if not np.all((a[basic] >= lp.lo[basic] - slack) & (a[basic] <= lp.hi[basic] + slack)):
        return None
    rounding = _ROUNDING * (1.0 + float(np.max(np.abs(lp.resp))))
    zero = np.flatnonzero((theta != 0.0) & (np.abs(theta) * lp.col_reach <= rounding))
    if zero.size:
        pins = np.union1d(pinned, zero)
        rows = _independent_rows(lp, obs, np.setdiff1d(np.arange(lp.m), pins))
        if rows is not None:
            snapped, resid, flat = _vertex_point(lp, rows, pins)
            # complementary slackness of `a` with the re-solved residuals
            if np.all(flat | ((resid > 0.0) & (a >= lp.hi - slack))
                      | ((resid < 0.0) & (a <= lp.lo + slack))):
                theta = snapped
    return theta, float(lp.resp @ a)


def _vertex_of(lp: _DualRows, a, theta):
    """The vertex of one problem that its interior solution (a, theta) points
    at: the interior solution ranks the rows twice, by how far inside its box
    each dual is and by how small each residual is, and the first m
    independent rows of either ranking whose vertex certifies itself give
    it.  Returns (theta, dual objective), or None if neither does."""
    resid = lp.resp - lp.fitted(theta)
    inside = np.minimum(a - lp.lo, lp.hi - a) / (lp.hi - lp.lo)
    for key in (-inside, np.abs(resid)):
        order = np.argsort(key, kind="stable")
        basic = _independent_rows(lp, order, np.arange(lp.m))
        vertex = None if basic is None else _vertex(lp, basic, a)
        if vertex is not None:
            return vertex
    return None


def _solve_lp_family(x, z, w, loss: LossKind, lam_w, fit_intercept: bool, tol, max_iter):
    """Fit an LP-family loss at each row of penalties lam_w (B x p):
    interior points on the duals in lockstep, then a vertex per problem.

    A coordinate whose penalty is at least reach_j = sum_r |m_rj|
    max(|lo_r|, |hi_r|), the most its dual constraint can see, is 0 at every
    optimum, and a problem screens it out.  A penalty below eps reach_j, the
    rounding of x_j'a, is fitted as 0.  Problems run in lockstep stacks
    of about _STACK doubles per stacked vector, and a stack keeps the union
    of its problems' columns.  Where a problem screens a column of the
    union, its penalty is clipped to 2 reach_j: that coordinate's dual
    constraint is then slack at every feasible a, so it is 0 at every
    optimum and the problem's optimum set is its screened problem's (this
    also keeps the pilot-zero floor's huge penalties out of the
    iterations).  An unpenalized coordinate whose column depends on the
    others (`_dependent_columns`: duplicated covariates, a constant one
    beside an intercept, fewer active rows than coordinates) is dropped from
    every problem; only intercepts and unpenalized columns enter that test,
    so the first stack answers for all.  Problems that penalize different
    coordinates (a lambda of 0 beside positive ones) run apart, since a
    pseudo-row's box cannot be empty.

    Each problem's vertex (`_vertex_of`) is found on its own screened rows
    from its rows of the interior solution.  With clipped columns the
    stack's central path is not the problem's own, and at a degenerate
    optimum its duals can stop too far from their box ends for the vertex
    check; such a problem whose vertex fails is fitted again alone.  Returns, per problem, (beta,
    intercepts, iterations, objective, dual objective), or the NoConvergence
    it raised because its iterations stopped short or no vertex was
    certified.
    """
    levels = loss_levels(loss)
    widest = w * sum(lv.scale * max(lv.tau, 1.0 - lv.tau) for lv in levels)
    reach = sum(np.abs(x[rows]).T @ widest[rows] for rows in _row_blocks(x))
    # the interior point divides by the width of a pseudo-row's box, which
    # overflows at such penalties (a subnormal lam_j, say)
    lam_w = np.where(lam_w < np.finfo(float).eps * reach, 0.0, lam_w)
    patterns = {}
    for b, row in enumerate(lam_w > 0.0):
        patterns.setdefault(row.tobytes(), []).append(b)
    if len(patterns) > 1:
        outcomes = [None] * len(lam_w)
        for group in patterns.values():
            solved = _solve_lp_family(x, z, w, loss, lam_w[group], fit_intercept, tol, max_iter)
            for b, outcome in zip(group, solved):
                outcomes[b] = outcome
        return outcomes
    p = x.shape[1]
    has_intercepts = fit_intercept or loss.family == LossKind.COMPOSITE_QUANTILE
    own = lam_w < reach
    size = max(1, _STACK // (len(levels) * len(x) + p))
    dependent = None  # found on the first stack with coordinates
    outcomes = []
    for start in range(0, len(lam_w), size):
        at = slice(start, start + size)
        cols = np.flatnonzero(own[at].any(axis=0))
        if dependent is not None:
            cols = np.setdiff1d(cols, dependent)
        boxes = np.where(own[at][:, cols], lam_w[at][:, cols], 2.0 * reach[cols])
        lp = _DualRows(x, z, w, levels, has_intercepts, boxes, cols)
        count = len(lp.lo)
        if lp.m:
            normal_u = lp.normal(lp.hi - lp.lo)
            if dependent is None:
                found = _dependent_columns(lp, normal_u[0])
                dependent = cols[found]
                if found.size:
                    kept = np.delete(np.arange(lp.m), found)
                    cols, boxes = np.delete(cols, found), np.delete(boxes, found, axis=1)
                    lp = _DualRows(x, z, w, levels, has_intercepts, boxes, cols)
                    normal_u = normal_u[:, kept][:, :, kept]
            a, theta, steps, failures = _frisch_newton(lp, normal_u, tol, max_iter)
        else:  # every coordinate dropped: the vertex is theta = ()
            a, theta = np.zeros(lp.lo.shape), np.zeros((count, 0))
            steps, failures = np.zeros(count, dtype=int), [None] * count
        for k, b in enumerate(range(start, start + count)):
            if failures[k] is not None:
                outcomes.append(NoConvergence(f"{loss.label()} fit {failures[k]}"))
                continue
            mine = own[b, cols]
            if mine.all():  # nothing clipped: the stack's rows are its own
                vertex = _vertex_of(lp.problem(k), a[k], theta[k])
            else:
                one = _DualRows(x, z, w, levels, has_intercepts, lam_w[b, cols[mine]], cols[mine])
                rows = np.r_[:lp.n_obs, lp.n_obs + np.flatnonzero(mine[lp.pen])]
                vertex = _vertex_of(one, a[k, rows], theta[k, np.r_[np.flatnonzero(mine), lp.p:lp.m]])
                if vertex is None:
                    outcomes += _solve_lp_family(x, z, w, loss, lam_w[b:b + 1], fit_intercept,
                                                 tol, max_iter)
                    continue
            if vertex is None:
                outcomes.append(NoConvergence(
                    f"{loss.label()} fit: the interior point converged in {steps[k]} "
                    "iterations but no vertex it ranked passed the optimality check"))
                continue
            coef, dual_objective = vertex
            beta = np.zeros(p)
            beta[cols[mine]] = coef[:np.count_nonzero(mine)]
            intercepts = coef[np.count_nonzero(mine):]
            objective = weighted_loss(loss, w, z, x @ beta, intercepts)
            objective += float(lam_w[b] @ np.abs(beta))
            outcomes.append((beta, intercepts, int(steps[k]), objective, dual_objective))
    return outcomes


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


def _solve_expectile(x, z, w, loss: LossKind, lam_w, config: FitConfig, beta_start):
    """Fit an expectile / least-squares loss; an intercept is one more
    column, never penalized.  Returns (beta, intercepts, iterations,
    objective, None), as `_solve_lp_family` does per problem but without a
    dual objective; raises NoConvergence."""
    k = int(config.fit_intercept)
    cols, pen = x, lam_w
    start = np.zeros(x.shape[1]) if beta_start is None else beta_start
    if k:
        cols = np.column_stack([np.ones(len(z)), x])
        pen = np.concatenate(([0.0], lam_w))
        start = np.concatenate(([0.0], start))
    coef, steps, converged = _expectile_newton(
        cols, z, w, loss.tau, pen, start, config.tol, config.max_iter
    )
    if not converged:
        raise NoConvergence(f"{loss.label()} fit did not converge ({steps} iterations)")
    # the intercept, if any, is inside cols @ coef
    objective = weighted_loss(loss, w, z, cols @ coef) + float(pen @ np.abs(coef))
    return coef[k:], coef[:k], steps, objective, None


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
    return _raised(_fit_path(x, z, w, loss, np.zeros((1, x.shape[1])), config)[0])


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
    return _raised(fit_adaptive_lasso_path(dataset, weights, config, beta_tilde, [config.lam])[0])


def fit_adaptive_lasso_path(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    config: FitConfig,
    beta_tilde,
    lams,
) -> list:
    """`fit_adaptive_lasso` at each lambda of lams (config.lam is not used).

    LP-family fits share their rows, so they run as one lockstep stack of
    interior points, each with its own vertex and certificates; expectile
    fits run one after another.  Returns, per lambda, its EstimatorResult or
    the CensLassoError that fit raised.  Errors of the data themselves
    (weights, beta_tilde) are raised.
    """
    lams = np.asarray(lams, dtype=float)
    if np.any(lams < 0.0):
        raise ValueError("lam must be >= 0")
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    x, z, w = _active_rows(dataset, weights)
    if len(beta_tilde) != x.shape[1]:
        raise DimensionMismatch("beta_tilde length must equal p")
    omega = adaptive_weights(beta_tilde, config.gamma, config.beta_floor)
    return _fit_path(x, z, w, config.loss, lams[:, None] * omega, config, beta_start=beta_tilde)


def _raised(fit):
    """A single fit's result; the error it raised is raised."""
    if isinstance(fit, CensLassoError):
        raise fit
    return fit


def _fit_path(x, z, w, loss, lam_ws, config, beta_start=None) -> list:
    """A fit per row of penalties lam_ws, each its EstimatorResult or the
    CensLassoError it raised: LP-family losses as one `_solve_lp_family`
    stack, expectile row by row."""
    if loss.is_lp_family:
        solved = _solve_lp_family(x, z, w, loss, lam_ws, config.fit_intercept,
                                  config.tol, config.max_iter)
    else:
        solved = [_attempt(_solve_expectile, x, z, w, loss, lam_w, config, beta_start)
                  for lam_w in lam_ws]
    return [fit if isinstance(fit, CensLassoError)
            else _attempt(_certified, x, z, w, loss, lam_w, *fit)
            for lam_w, fit in zip(lam_ws, solved)]


def _attempt(fn, *args):
    """fn(*args), or the CensLassoError it raised."""
    try:
        return fn(*args)
    except CensLassoError as exc:
        return exc


def _certified(x, z, w, loss, lam_w, beta, intercepts, steps, objective, dual_objective):
    """The fit's result with its certificates: the duality gap (LP route)
    must be small, and the KKT residual is attached."""
    gap = None if dual_objective is None else abs(objective - dual_objective)
    if gap is not None and gap > 1e-6 * max(1.0, abs(objective)):
        raise SolverError(f"primal-dual objective mismatch: gap={gap}")
    return EstimatorResult(
        beta=beta,
        intercepts=intercepts,
        objective=objective,
        iterations=steps,
        converged=True,
        duality_gap=gap,
        kkt_residual=_kkt_residual(x, z, w, loss, lam_w, beta, intercepts),
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
    lam_w = lam * np.asarray(adaptive_weights_vec, dtype=float)
    return _kkt_residual(x, z, w, loss, lam_w, result.beta, result.intercepts, zero_tol)


def _kkt_residual(x, z, w, loss, lam_w, beta, intercepts, zero_tol: float = 1e-7) -> float:
    """`kkt_residual` on the active rows, one pass over x per level and no
    n x p copy of it."""
    p, n_int = x.shape[1], len(intercepts)
    levels = loss_levels(loss, intercepts)
    lo = np.zeros(p + len(levels))
    hi = np.zeros(p + len(levels))
    fitted = x @ beta
    for k, level in enumerate(levels):
        d_lo, d_hi = level.slopes(level.residuals(z, fitted), zero_tol)
        # sum_i c_i [d_lo_i, d_hi_i] = c'mid -/+ |c|'half, and half is 0
        # off the check loss's kink
        mid, half = w * (d_lo + d_hi) / 2.0, w * (d_hi - d_lo) / 2.0
        kink = np.flatnonzero(half)
        spread = np.abs(x[kink]).T @ half[kink]
        at = np.r_[:p, p + k]
        center = np.r_[x.T @ mid, mid.sum()]
        lo[at] += center - np.r_[spread, half.sum()]
        hi[at] += center + np.r_[spread, half.sum()]
    lo, hi = lo[:p + n_int], hi[:p + n_int]
    coef = np.concatenate([beta, intercepts])
    lam_w = np.concatenate([lam_w, np.zeros(n_int)])
    # the penalty's subdifferential: lam_w * sign(b), or [-lam_w, lam_w] at 0
    at_zero = coef == 0.0
    lo += np.where(at_zero, -lam_w, lam_w * np.sign(coef))
    hi += np.where(at_zero, lam_w, lam_w * np.sign(coef))
    return float(max(lo.max(initial=0.0), -hi.min(initial=0.0)))

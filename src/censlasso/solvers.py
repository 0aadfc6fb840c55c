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
  at 0, and keeping it would make the system singular).  The iterations
  and the polish run on the kept columns, copied once into one contiguous
  array (x itself when every column is kept).  One vertex
  polish then makes the fit exact: p + J rows ranked basic by the interior
  solution, first by how far inside its box each dual is and then, for the
  fits that ranking leaves, by how small each residual is, fix the
  coefficients (a basic pseudo-row is an exact zero), the other duals go to
  the ends of their boxes by residual sign, and the basic duals must come
  out inside their boxes.  That check is the optimality certificate, and its
  dual objective gives the duality gap; a coordinate 0 up to rounding is
  pinned at 0 if the same duals certify the re-solved point.  Fits on the
  same rows that differ only in their penalties (a BIC path,
  `fit_adaptive_lasso` with lams) run as one stack in lockstep (Koenker &
  Ng 2005): per iteration one batched solve of their normal matrices and
  per-problem step lengths, then the polish for the whole stack in batched
  calls; each keeps its own vertex, certificates, iteration count and
  failure.  A single fit is a stack of one.  A fit whose iterations stop
  short raises `NoConvergence`.  After the polish there are two outcomes
  for a fit left without a certified vertex: one whose stack clipped its
  penalties (its central path is the stack's, not its own) is fitted again
  alone, and any other raises `NoConvergence`.

* expectile / least squares: Newton steps on the residual-sign pattern.
  The loss is piecewise quadratic, so with the signs frozen the fit is a
  penalized least-squares problem in the p x p Gram matrix: solved directly
  without a penalty, and exactly with one by a primal-dual active-set
  iteration (Fan, Jiao & Lu 2014) whose active block is one batched linear
  solve; a problem whose active block is singular or whose active sets
  cycle falls back to cyclic coordinate descent with soft-thresholding.  A
  backtracking step on the true objective follows, and the fit is exact
  once the signs repeat (a residual 0 up to rounding repeats either sign).
  Fits on the same rows (a BIC path) run as one stack in lockstep, as on
  the LP route: per Newton step their Gram matrices are formed together
  over blocks of rows and their frozen problems solved as one stack, and
  each problem stops once it converges.
  Every product is a problem's own, so its fit does not depend on its
  stack.  Pilot and penalized fits, with or without an intercept, all take
  this one route; a single fit is a stack of one.
"""

from __future__ import annotations

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
    fit_intercept: bool = False

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be > 0")
        if self.tol <= 0.0:
            raise ValueError("tol must be > 0")

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


# the least |beta_tilde_j| an adaptive weight divides by
_BETA_FLOOR = 1e-10
# distance from 0 within which a check-loss residual sits at the kink, for
# the KKT certificate
_ZERO_TOL = 1e-7


def adaptive_weights(beta_tilde, gamma: float = 1.0) -> np.ndarray:
    """Per-coordinate penalty weights 1 / max(|beta_tilde_j|, _BETA_FLOOR)^gamma."""
    bt = np.abs(np.asarray(beta_tilde, dtype=float))
    return np.maximum(bt, _BETA_FLOOR) ** (-gamma)


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

    def slopes(self, resid):
        """Derivative of each row's loss in its fitted value, as [lo, hi].

        A check loss has the point value away from its kink and the whole
        interval scale * [-tau, 1 - tau] at residuals within _ZERO_TOL of 0;
        the expectile loss is differentiable, so lo = hi.
        """
        if self.loss.family == LossKind.EXPECTILE:
            g = expectile_grad(self.tau, resid)
            return g, g
        point = np.where(resid < 0.0, 1.0 - self.tau, -self.tau)
        at_zero = np.abs(resid) <= _ZERO_TOL
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
# share of a column's squared norm that it must keep beyond the columns
# before it to count as clearly independent of them
_CLEAR = 1e-6
# doubles per block of design rows that is copied at a time
_BLOCK = 1 << 18
# doubles per stacked vector of problems that run in lockstep: a stack's
# iterations hold a few dozen such vectors
_STACK = 1 << 14


def _row_blocks(x, stack=1):
    """Slices covering x's rows, a few MB of x (times the stack's size) at a time."""
    step = max(1, _BLOCK // max(x.shape[1] * stack, 1))
    return [slice(s, s + step) for s in range(0, len(x), step)]


def _weighted_grams(block, q, dim, blocks):
    """M' diag(q_b) M for each row q_b of q, (B, n) -> (B, dim, dim), summed
    over the row slices `blocks`, where block(rows) gives M's rows as a
    (rows, dim) array.  Each problem's sum is its own matmul slice per
    block; the largest temporary is one block's (B, rows, dim) weighted
    copy."""
    g = np.zeros((len(q), dim, dim))
    for rows in blocks:
        mb = block(rows)
        g += np.matmul(mb.T, mb * q[:, rows, None])
    return g


def _clearly_independent(grams):
    """Per Gram matrix (..., d, d): whether its columns are clearly linearly
    independent, each keeping more than _CLEAR of its squared norm beyond
    the columns before it (the squared pivots of a Cholesky factor)."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(grams), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        if grams.ndim == 2:
            return False
        return np.array([_clearly_independent(g) for g in grams], dtype=bool)
    return np.all(pivots > _CLEAR * np.diagonal(grams, axis1=-2, axis2=-1), axis=-1)


class _DualRows:
    """The rows of bounded dual LPs: max resp'a s.t. M'a = 0, lo <= a <= hi.

    x holds the slope columns the problems keep.  Coordinates theta are the
    slopes of x's columns, then one intercept per level when the fit has
    intercepts.  Row (k, i), stored at k * n + i, is observation i at level
    k: design (x_i, e_k), response z_i, box scale * w_i * [tau_k - 1, tau_k].
    Then one pseudo-row per penalized coordinate j: design e_j, response 0,
    box [-lam_j, lam_j].  Problems that share M and resp and differ only in
    their penalties form a stack: lam_w is (p,) for one problem and then lo
    and hi are vectors, or (B, p) for B problems that penalize the same
    coordinates and then lo and hi have one row per problem.  `fitted` and
    `adjoint` act on the last axis and `normal` on each row of a 2-d q, so
    one call serves a stack.
    M is not formed: every level shares x, and products with x run over all
    its columns or over blocks of its rows.
    """

    def __init__(self, x, z, w, levels, has_intercepts, lam_w):
        self.x, self.n_levels = x, len(levels)
        n, self.p = x.shape
        self.n_obs = self.n_levels * n
        self.m = self.p + (self.n_levels if has_intercepts else 0)
        self.pen = np.flatnonzero(np.any(lam_w > 0.0, axis=tuple(range(lam_w.ndim - 1))))
        # the largest |entry| of each design column
        self.col_reach = np.r_[np.maximum(x.max(axis=0, initial=0.0), -x.min(axis=0, initial=0.0)),
                               np.ones(self.m - self.p)]
        self.resp = np.concatenate([np.tile(z, self.n_levels), np.zeros(len(self.pen))])
        stack = lam_w.shape[:-1]
        obs_lo = np.concatenate([-lv.scale * (1.0 - lv.tau) * w for lv in levels])
        obs_hi = np.concatenate([lv.scale * lv.tau * w for lv in levels])
        self.lo = np.concatenate([np.broadcast_to(obs_lo, stack + obs_lo.shape),
                                  -lam_w[..., self.pen]], axis=-1)
        self.hi = np.concatenate([np.broadcast_to(obs_hi, stack + obs_hi.shape),
                                  lam_w[..., self.pen]], axis=-1)

    def _per_level(self, v):
        return v[..., :self.n_obs].reshape(v.shape[:-1] + (self.n_levels, -1))

    def _row_sums(self, v):
        """Per observation, v summed over the levels."""
        if self.n_levels == 1:
            return v[..., :self.n_obs]
        return self._per_level(v).sum(axis=-2)

    def fitted(self, theta):
        """M theta."""
        stack = theta.shape[:-1]
        rows = theta[..., :self.p] @ self.x.T
        if self.m > self.p:  # one intercept per level (only these have levels)
            rows = (rows[..., None, :] + theta[..., self.p:, None]).reshape(stack + (-1,))
        if not self.pen.size:
            return rows
        return np.concatenate([rows, theta[..., self.pen]], axis=-1)

    def adjoint(self, v):
        """M'v."""
        out = np.empty(v.shape[:-1] + (self.m,))
        out[..., :self.p] = self._row_sums(v) @ self.x
        if self.m > self.p:
            out[..., self.p:] = self._per_level(v).sum(axis=-1)
        if self.pen.size:
            out[..., self.pen] += v[..., self.n_obs:]
        return out

    def normal(self, q):
        """M' diag(q) M, for a stack of q's (B, rows) -> (B, m, m)."""
        g = np.zeros((len(q), self.m, self.m))
        g[:, :self.p, :self.p] = _weighted_grams(lambda rows: self.x[rows], self._row_sums(q),
                                                 self.p, _row_blocks(self.x, len(q)))
        if self.m > self.p:
            per_level = self._per_level(q)
            cross = per_level @ self.x
            g[:, self.p:, :self.p] = cross
            g[:, :self.p, self.p:] = cross.transpose(0, 2, 1)
            at = np.arange(self.p, self.m)
            g[:, at, at] = per_level.sum(axis=2)
        g[:, self.pen, self.pen] += q[:, self.n_obs:]
        return g

    def design(self, rows):
        """The rows of M with the given indices (an array of any shape), each
        as a length-m vector on a new last axis."""
        rows = np.asarray(rows)
        out = np.zeros(rows.shape + (self.m,))
        obs = rows < self.n_obs
        level, i = np.divmod(rows[obs], len(self.x))
        out[obs, :self.p] = self.x[i]
        if self.m > self.p:
            out[obs, self.p + level] = 1.0
        out[~obs, self.pen[rows[~obs] - self.n_obs]] = 1.0
        return out


def _step_length(fastest):
    """Per row, the largest t <= 1 short of the boundary, given the fastest
    rate max_i -dv_i / v_i at which some v + t dv reaches 0; as a column."""
    return (_STEP_SHARE / np.maximum(fastest, _STEP_SHARE))[:, None]


def _row_dot(u, v):
    """u_b'v_b for each row b (v_b = v for a vector v)."""
    return np.matmul(u[:, None, :], v[..., None])[:, 0, 0]


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
    try:
        theta = np.linalg.solve(normal_u, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
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
    if _clearly_independent(normal_u[np.ix_(free, free)]):
        return np.zeros(0, dtype=int)
    r = np.zeros((0, len(free)))
    n = len(lp.x)
    for k in range(lp.n_levels):
        for rows in _row_blocks(lp.x):
            block = lp.design(k * n + np.arange(n)[rows])[:, free]
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
    kept = _first_independent(lambda at: r[:, at].T, len(free), len(r), len(free))
    return np.setdiff1d(free, free[kept])


def _vertex_points(lp: _DualRows, obs, free):
    """Per problem g, the point with residual 0 on the observation rows
    obs[g] and its coordinates outside free[g] at exactly 0 (obs and free
    are G x r, free sorted); returns (theta, the square systems solved,
    residuals, flat), `flat` marking the residuals that are 0 up to
    rounding.  Raises LinAlgError if a system is singular."""
    square = np.take_along_axis(lp.design(obs), free[:, None, :], axis=2)
    theta = np.zeros((len(obs), lp.m))
    np.put_along_axis(theta, free, np.linalg.solve(square, lp.resp[obs][..., None])[..., 0],
                      axis=1)
    fitted = lp.fitted(theta)
    resid = lp.resp - fitted
    flat = np.abs(resid) <= _ROUNDING * (np.abs(lp.resp) + np.abs(fitted) + 1.0)
    return theta, square, resid, flat


def _vertices(lp: _DualRows, basic, a_interior, lo, hi):
    """The vertices of G problems on lp's rows, problem g with basic rows
    basic[g] (G x m, the same number of observation rows in each) and boxes
    lo[g], hi[g].

    Basic observation rows get residual 0 and a basic pseudo-row pins its
    coordinate to exactly 0.  Every non-basic dual sits at the end of its
    box that its residual's sign selects (a residual 0 up to rounding, as at
    ties and duplicated rows, keeps its interior dual), and the basic duals
    solve M'a = 0.  The vertex is optimal iff they lie in their boxes.
    Returns (theta, a, certified, snap, dual objective), a row or entry per
    problem: `snap` marks coordinates that are 0 up to rounding, which
    `_snapped` pins.  Raises LinAlgError if a system is singular.
    """
    count, n_obs = len(basic), lp.n_obs
    is_obs = basic < n_obs
    obs = basic[is_obs].reshape(count, -1)
    free = np.ones((count, lp.m), dtype=bool)
    free[np.nonzero(~is_obs)[0], lp.pen[basic[~is_obs] - n_obs]] = False
    pinned = ~free[:, lp.pen]
    free = np.nonzero(free)[1].reshape(count, -1)
    theta, square, resid, flat = _vertex_points(lp, obs, free)
    a = np.where(flat, a_interior, np.where(resid > 0.0, hi, lo))
    np.put_along_axis(a, basic, 0.0, axis=1)
    pull = lp.adjoint(a)
    a_obs = np.linalg.solve(square.transpose(0, 2, 1),
                            -np.take_along_axis(pull, free, axis=1)[..., None])[..., 0]
    np.put_along_axis(a, obs, a_obs, axis=1)
    # a basic pseudo-row's dual closes its coordinate's constraint
    closing = -(pull + (a_obs[:, None, :] @ lp.design(obs))[:, 0, :])
    a[:, n_obs:] = np.where(pinned, closing[:, lp.pen], a[:, n_obs:])
    slack = 1e-9 * np.max(hi[:, :n_obs] - lo[:, :n_obs], axis=1, keepdims=True)
    certified = np.take_along_axis((a >= lo - slack) & (a <= hi + slack), basic, axis=1)
    rounding = _ROUNDING * (1.0 + np.max(np.abs(lp.resp)))
    snap = (theta != 0.0) & (np.abs(theta) * lp.col_reach <= rounding)
    return theta, a, certified.all(axis=1), snap, a @ lp.resp


def _snapped(lp: _DualRows, basic, a, lo, hi, theta, snap):
    """theta, one problem's certified vertex with basic rows `basic`, duals a
    and boxes lo, hi, with its coordinates marked `snap` (0 up to rounding,
    as at a degenerate vertex) pinned at 0 as well, as long as the same
    duals certify the re-solved point; else theta as it is."""
    obs = basic[basic < lp.n_obs]
    pins = np.union1d(lp.pen[basic[basic >= lp.n_obs] - lp.n_obs], np.flatnonzero(snap))
    free = np.setdiff1d(np.arange(lp.m), pins)
    rows = _first_independent(lambda at: lp.design(obs[at])[:, free],
                              len(obs), len(free), len(free))
    if len(rows) < len(free):
        return theta
    snapped, _, resid, flat = _vertex_points(lp, obs[rows][None], free[None])
    # complementary slackness of `a` with the re-solved residuals
    slack = 1e-9 * float(np.max(hi[:lp.n_obs] - lo[:lp.n_obs]))
    if np.all(flat | ((resid > 0.0) & (a >= hi - slack)) | ((resid < 0.0) & (a <= lo + slack))):
        return snapped[0]
    return theta


def _polish(lp: _DualRows, live, a, theta, clipped):
    """The vertices of the problems `live` of a stack that the stack's
    interior solution (a, theta) points at; clipped (a row per problem of the
    stack, lp.p columns) marks the slopes each problem screens out.

    Each problem's rows are ranked by how far inside its box each dual is,
    and, for the problems that ranking leaves, by how small each residual is
    at theta with the clipped slopes at 0.  In both rankings the pseudo-rows
    of the clipped coordinates come first, so that those are pinned at 0,
    and their boxes are widened to the whole line: what is left is the
    screened problem's own ranking.  The first m rows of a ranking are its
    basic rows when they are independent on the problem's own columns (one
    batched QR, the `_first_independent` test); else `_first_independent`
    searches the ranking for them.  Problems with the same number of basic
    observation rows get their vertices from one batched `_vertices`, each
    alone if that is singular, and a certified vertex is `_snapped`.
    Returns {problem: (theta, dual objective)} for the certified problems.
    """
    n_obs, m = lp.n_obs, lp.m
    lo, hi, a, clipped = lp.lo[live], lp.hi[live], a[live], clipped[live]
    clipped_rows = clipped[:, lp.pen]
    key = -np.minimum(a - lo, hi - a) / (hi - lo)
    # a clipped coordinate's dual constraint is not its screened problem's
    lo[:, n_obs:][clipped_rows], hi[:, n_obs:][clipped_rows] = -np.inf, np.inf
    own = np.concatenate([~clipped, np.ones((len(live), m - lp.p), dtype=bool)], axis=1)
    polished, left = {}, np.arange(len(live))
    for ranking in ("inside", "residual"):
        if ranking == "residual":
            left = np.array([k for k in left if live[k] not in polished], dtype=int)
            if not left.size:
                break
            key = np.abs(lp.resp - lp.fitted(np.where(own[left], theta[live[left]], 0.0)))
        key[:, n_obs:][clipped_rows[left]] = -np.inf
        order = np.argsort(key, axis=1, kind="stable")
        basic = order[:, :m]
        rows = lp.design(basic)
        rows[..., :lp.p][(basic < n_obs)[:, :, None] & clipped[left][:, None, :]] = 0.0
        r = np.linalg.qr(rows.transpose(0, 2, 1), mode="r")
        found = np.all(np.abs(np.diagonal(r, axis1=1, axis2=2))
                       > _DEPENDENT * np.linalg.norm(rows, axis=2), axis=1)
        for g in np.flatnonzero(~found):
            cols = np.flatnonzero(own[left[g]])
            rest = order[g, m - len(cols):]  # after the clipped pseudo-rows
            chosen = _first_independent(lambda at: lp.design(rest[at])[:, cols],
                                        len(rest), len(cols), len(cols))
            if len(chosen) == len(cols):
                basic[g, m - len(cols):], found[g] = rest[chosen], True
        counts = np.count_nonzero(basic < n_obs, axis=1)
        for count in np.unique(counts[found]):
            tries = [np.flatnonzero(found & (counts == count))]
            while tries:
                group = tries.pop()
                k = left[group]
                try:
                    vertex, duals, certified, snap, dual = _vertices(lp, basic[group], a[k],
                                                                     lo[k], hi[k])
                except np.linalg.LinAlgError:
                    if len(group) > 1:
                        tries += [group[i:i + 1] for i in range(len(group))]
                    continue
                for i in np.flatnonzero(certified):
                    if snap[i].any():
                        vertex[i] = _snapped(lp, basic[group[i]], duals[i], lo[k[i]], hi[k[i]],
                                             vertex[i], snap[i])
                    polished[live[k[i]]] = vertex[i], float(dual[i])
    return polished


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

    Each stack's vertices are polished at once (`_polish`).  With clipped
    columns the stack's central path is not the problem's own, and at a
    degenerate optimum its duals can stop too far from their box ends for
    the vertex check; such a problem that the polish leaves is fitted again
    alone.  Returns, per problem, (beta, intercepts, iterations, dual
    objective), or the NoConvergence it raised because its iterations
    stopped short or no vertex was certified.
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
        lp = _DualRows(x if len(cols) == p else x.take(cols, axis=1), z, w, levels,
                       has_intercepts, boxes)
        count = len(lp.lo)
        if lp.m:
            normal_u = lp.normal(lp.hi - lp.lo)
            if dependent is None:
                found = _dependent_columns(lp, normal_u[0])
                dependent = cols[found]
                if found.size:
                    kept = np.delete(np.arange(lp.m), found)
                    cols, boxes = np.delete(cols, found), np.delete(boxes, found, axis=1)
                    lp = _DualRows(np.delete(lp.x, found, axis=1), z, w, levels,
                                   has_intercepts, boxes)
                    normal_u = normal_u[:, kept][:, :, kept]
            a, theta, steps, failures = _frisch_newton(lp, normal_u, tol, max_iter)
        else:  # every coordinate dropped: the vertex is theta = ()
            a, theta = np.zeros(lp.lo.shape), np.zeros((count, 0))
            steps, failures = np.zeros(count, dtype=int), [None] * count
        live = np.flatnonzero([failure is None for failure in failures])
        polished = _polish(lp, live, a, theta, ~own[at][:, cols])
        for k, b in enumerate(range(start, start + count)):
            if failures[k] is not None:
                outcomes.append(NoConvergence(f"{loss.label()} fit {failures[k]}"))
            elif k in polished:
                coef, dual_objective = polished[k]
                beta = np.zeros(p)
                beta[cols] = coef[:lp.p]
                outcomes.append((beta, coef[lp.p:], int(steps[k]), dual_objective))
            elif not own[b, cols].all():  # clipped: the stack's central path is not its own
                outcomes += _solve_lp_family(x, z, w, loss, lam_w[b:b + 1], fit_intercept,
                                             tol, max_iter)
            else:
                outcomes.append(NoConvergence(
                    f"{loss.label()} fit: the interior point converged in {steps[k]} "
                    "iterations but no vertex it ranked passed the optimality check"))
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


def _active_set_lasso(gram, lin, lam_w, beta, max_rounds):
    """Minimize b'G_k b - 2c_k'b + sum_j lam_kj |b_j| exactly for each problem
    k of a stack (a row of lam_w and beta, a matrix of gram), from beta_k,
    by a primal-dual active-set iteration (Fan, Jiao & Lu 2014).

    rho_j = c_j - (Gb)_j + G_jj b_j is what coordinate descent soft-thresholds
    at j.  A round takes the active set |rho_j| > lam_j / 2, every
    unpenalized coordinate included, with the signs of rho, and solves
    G_AA b_A = c_A - sign(rho_A) lam_A / 2 with b = 0 off A: one batched
    solve, with identity rows for the inactive coordinates.  The KKT
    conditions hold exactly when the active set and signs at the new point
    are the ones it was solved with, and a problem stops there.  A problem
    whose active block is singular (`_clearly_independent`), or whose active
    sets come back to an earlier one or run past max_rounds, is given up.
    Returns (b, solved), solved marking the problems that met the KKT check.
    """
    count, dim = beta.shape
    b, solved = beta.copy(), np.zeros(count, dtype=bool)
    half, free = 0.5 * lam_w, lam_w == 0.0
    diag = np.diagonal(gram, axis1=1, axis2=2)
    at = np.arange(dim)
    seen = [set() for _ in range(count)]
    live = np.arange(count)
    last = None  # the live problems' patterns that gave their b
    for _ in range(int(max_rounds) + 1):
        g, d, f, bl = gram[live], diag[live], free[live], b[live]
        rho = lin[live] - np.matmul(g, bl[:, :, None])[:, :, 0] + d * bl
        active = f | (np.abs(rho) > half[live])
        # per coordinate: 0 inactive, +-1 the sign of an active penalized one, 2 unpenalized
        pattern = np.where(f, 2, np.where(active, np.sign(rho), 0.0)).astype(np.int8)
        met = np.zeros(len(live), dtype=bool) if last is None else np.all(pattern == last, axis=1)
        solved[live[met]] = True
        go = ~met
        for k, row in enumerate(pattern):
            go[k] &= row.tobytes() not in seen[live[k]]
            seen[live[k]].add(row.tobytes())
        if not go.any():
            break
        live, g, d, active, pattern = live[go], g[go], d[go], active[go], pattern[go]
        system = np.where(active[:, :, None] & active[:, None, :], g, 0.0)
        system[:, at, at] = np.where(active, d, 1.0)
        rhs = np.where(active, lin[live] - pattern * half[live], 0.0)
        ok = _clearly_independent(system)
        b[live[ok]] = np.linalg.solve(system[ok], rhs[ok][:, :, None])[:, :, 0]
        live, last = live[ok], pattern[ok]
    return b, solved


def _frozen_lasso(gram, lin, lam_w, beta, tol, max_iter):
    """Each problem k's frozen quadratic, min b'G_k b - 2c_k'b + sum_j lam_kj
    |b_j| from beta_k: penalized ones by `_active_set_lasso`, the others and
    those it gives up by `_gram_lasso` (the direct solve, or coordinate
    descent of at most max_iter sweeps).  Returns (b, descended)."""
    b, descended = beta.copy(), np.zeros(len(beta), dtype=bool)
    penalized = np.any(lam_w > 0.0, axis=1)
    if penalized.any():
        b[penalized], descended[penalized] = _active_set_lasso(
            gram[penalized], lin[penalized], lam_w[penalized], beta[penalized], max_iter)
    for k in np.flatnonzero(~descended):
        b[k], descended[k] = _gram_lasso(gram[k], lin[k], lam_w[k], beta[k], tol, max_iter)
    return b, descended


def _expectile_newton(x, z, w, tau, lam_w, beta, tol, max_iter):
    """Weighted expectile (adaptive) lasso by Newton steps on sign patterns,
    for a stack of problems on the same rows: a row of penalties lam_w each,
    all from the start beta.

    The loss w_i |tau - 1{r_i < 0}| r_i^2 is quadratic while the residual
    signs stay put, so each step freezes every live problem's signs, forms
    their Gram matrices X'A_kX and vectors X'A_kz together over blocks of
    rows (`_weighted_grams`), minimizes the penalized quadratics exactly
    (`_frozen_lasso`), and backtracks each on its true objective.  Once the
    signs at a problem's target equal its frozen ones, the frozen problem's
    optimality conditions are the true ones, the target is the exact
    minimizer, and the problem stops.  Every product is a problem's own (its
    own matmul slice, over row blocks that do not depend on the stack), so
    a problem's fit does not depend on the stack it ran in.  Returns (beta,
    steps, converged), a row or entry per problem; a step that cannot lower
    a problem's objective ends its fit unconverged and is not taken.
    """
    count, dim = lam_w.shape
    blocks = _row_blocks(x)

    def objective(b, lam):
        r = z - np.matmul(x, b[:, :, None])[:, :, 0]
        asym = np.where(r < 0.0, 1.0 - tau, tau)
        return _row_dot(asym * r * r, w) + _row_dot(lam, np.abs(b)), r

    def design(rows):
        return np.column_stack([x[rows], z[rows]])

    b = np.repeat(np.asarray(beta, dtype=float)[None], count, axis=0)
    beta_out, steps, converged = b.copy(), np.full(count, int(max_iter)), np.zeros(count, bool)
    obj, r = objective(b, lam_w)
    live = np.arange(count)
    for step in range(1, int(max_iter) + 1):
        lam = lam_w[live]
        negative = r < 0.0
        g = _weighted_grams(design, w * np.where(negative, 1.0 - tau, tau), dim + 1, blocks)
        target, descended = _frozen_lasso(np.ascontiguousarray(g[:, :dim, :dim]),
                                          np.ascontiguousarray(g[:, :dim, dim]),
                                          lam, b, tol, max_iter)
        new_obj, new_r = objective(target, lam)
        # where the signs repeat, the frozen quadratic is exact on the segment;
        # a residual 0 up to rounding (an interpolated row) keeps its sign, as
        # it adds nothing to the gradient whichever weight it was frozen with
        flat = np.abs(new_r) <= _ROUNDING * (np.abs(z) + np.abs(z - new_r) + 1.0)
        same = np.all(((new_r < 0.0) == negative) | flat, axis=1)
        direction, t = target - b, np.ones(len(live))
        stalled = np.zeros(len(live), dtype=bool)
        trying = np.flatnonzero(~same & (new_obj >= obj))
        while trying.size:
            t[trying] *= 0.5
            trial = b[trying] + t[trying, None] * direction[trying]
            flat = np.all(trial == b[trying], axis=1)
            stalled[trying[flat]] = True
            trying, trial = trying[~flat], trial[~flat]
            if trying.size:
                new_obj[trying], new_r[trying] = objective(trial, lam[trying])
                trying = trying[new_obj[trying] >= obj[trying]]
        moved = np.where(same[:, None], target, b + t[:, None] * direction)
        b, obj, r = np.where(stalled[:, None], b, moved), new_obj, new_r
        done = stalled | (same & descended)
        beta_out[live[done]], steps[live[done]] = b[done], step
        converged[live[done]] = ~stalled[done]
        live, b, obj, r = live[~done], b[~done], obj[~done], r[~done]
        if not len(live):
            break
    beta_out[live] = b
    return beta_out, steps, converged


def _solve_expectile(x, z, w, loss: LossKind, lam_ws, config: FitConfig, beta_start):
    """Fit an expectile / least-squares loss at each row of penalties lam_ws
    (B x p); an intercept is one more column, never penalized.  Problems run
    in lockstep stacks of about _STACK / n problems (`_expectile_newton`).
    Returns, per problem, (beta, intercepts, iterations, None), as
    `_solve_lp_family` does but without a dual objective, or the
    NoConvergence it raised."""
    k = int(config.fit_intercept)
    start = np.zeros(x.shape[1]) if beta_start is None else beta_start
    if k:
        x = np.column_stack([np.ones(len(z)), x])
        lam_ws = np.column_stack([np.zeros(len(lam_ws)), lam_ws])
        start = np.concatenate(([0.0], start))
    size = max(1, _STACK // len(x))
    outcomes = []
    for at in range(0, len(lam_ws), size):
        coefs, steps, converged = _expectile_newton(
            x, z, w, loss.tau, lam_ws[at:at + size], start, config.tol, config.max_iter)
        for coef, count, ok in zip(coefs, steps, converged):
            outcomes.append((coef[k:], coef[:k], int(count), None) if ok else NoConvergence(
                f"{loss.label()} fit did not converge ({count} iterations)"))
    return outcomes


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
    lams=None,
) -> "EstimatorResult | AdaptiveLassoPath":
    """Adaptive-LASSO fit: empirical loss plus lam * sum_j |beta_j| / |beta_tilde_j|^gamma.

    beta_tilde is the pilot (unpenalized) estimate on the same data; pilot
    coordinates at zero are floored so the penalty stays defined (and in
    effect pins those coordinates to zero).  Intercepts are never penalized.

    Without lams this is the EstimatorResult at config.lam, and the error
    the fit raised is raised.  With lams it is the fit at each lambda of
    lams (config.lam is not used) as one `AdaptiveLassoPath`.  Those fits
    share their rows, so they run in lockstep stacks: interior points for
    the LP family, each with its own vertex and certificates, and
    sign-pattern Newton steps for expectile.  A point's fit is the same bit
    for bit as its single fit.  Errors of the data themselves (weights,
    beta_tilde) are raised either way.
    """
    single = lams is None
    lams = np.asarray([config.lam] if single else lams, dtype=float)
    if np.any(lams < 0.0):
        raise ValueError("lam must be >= 0")
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    x, z, w = _active_rows(dataset, weights)
    if len(beta_tilde) != x.shape[1]:
        raise DimensionMismatch("beta_tilde length must equal p")
    omega = adaptive_weights(beta_tilde, config.gamma)
    fits = _fit_path(x, z, w, config.loss, lams[:, None] * omega, config, beta_start=beta_tilde)
    return _raised(fits[0]) if single else AdaptiveLassoPath(fits)


class AdaptiveLassoPath(tuple):
    """The fits of an adaptive-LASSO path, one per lambda in order: each its
    EstimatorResult or the CensLassoError that fit raised.  Its iterations
    and converged sum up the path as an EstimatorResult's do for one fit."""

    __slots__ = ()

    @property
    def iterations(self) -> int:
        """Solver iterations of the path's fitted points, summed."""
        return sum(f.iterations for f in self if isinstance(f, EstimatorResult))

    @property
    def converged(self) -> bool:
        """Whether every point of the path was fitted."""
        return all(isinstance(f, EstimatorResult) for f in self)


def _raised(fit):
    """A single fit's result; the error it raised is raised."""
    if isinstance(fit, CensLassoError):
        raise fit
    return fit


def _fit_path(x, z, w, loss, lam_ws, config, beta_start=None) -> list:
    """A fit per row of penalties lam_ws, each its EstimatorResult or the
    CensLassoError it raised: solved in lockstep stacks (`_solve_lp_family`,
    `_solve_expectile`), then certified as many fits at a time as a stack
    holds."""
    if loss.is_lp_family:
        solved = _solve_lp_family(x, z, w, loss, lam_ws, config.fit_intercept,
                                  config.tol, config.max_iter)
    else:
        solved = _solve_expectile(x, z, w, loss, lam_ws, config, beta_start)
    fits = [k for k, fit in enumerate(solved) if not isinstance(fit, CensLassoError)]
    size = max(1, _STACK // len(x))
    for some in (fits[start:start + size] for start in range(0, len(fits), size)):
        betas = np.array([solved[k][0] for k in some])
        intercepts = np.array([solved[k][1] for k in some]).reshape(len(some), -1)
        certificates = _certificates(x, z, w, loss, lam_ws[some], betas, intercepts)
        for k, objective, kkt in zip(some, *certificates):
            solved[k] = _attempt(_certified, *solved[k], float(objective), float(kkt))
    return solved


def _attempt(fn, *args):
    """fn(*args), or the CensLassoError it raised."""
    try:
        return fn(*args)
    except CensLassoError as exc:
        return exc


def _certified(beta, intercepts, steps, dual_objective, objective, kkt):
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
        kkt_residual=kkt,
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
) -> float:
    """Max over coordinates of the distance of 0 from the subdifferential.

    Each level contributes its rows' derivative intervals (`LossLevel.slopes`:
    check-loss residuals within _ZERO_TOL of 0 take their whole interval),
    summed per column.  Intercept coordinates are included without penalty.
    """
    x, z, w = _active_rows(dataset, weights)
    lam_w = lam * np.asarray(adaptive_weights_vec, dtype=float)
    intercepts = np.asarray(result.intercepts, dtype=float)
    return float(_certificates(x, z, w, loss, lam_w[None], result.beta[None],
                               intercepts[None])[1][0])


def _certificates(x, z, w, loss, lam_ws, betas, intercepts):
    """Per fit (a row of lam_ws, betas and intercepts, on the active rows):
    its penalized objective and its `kkt_residual`.

    Each fit's fitted values and loss sums are its own products, as in
    `objective_value`; the subdifferential sums of all fits are one product
    with x per level, and with |x| on the rows at some fit's kink, with no
    n x p copy of x.
    """
    count, p = betas.shape
    levels = loss_levels(loss)
    fitted = np.stack([x @ beta for beta in betas])
    objectives = np.zeros(count)
    lo = np.zeros((count, p + len(levels)))
    hi = np.zeros((count, p + len(levels)))
    for k, level in enumerate(levels):
        shift = intercepts[:, k, None] if intercepts.shape[1] else 0.0
        resid = z - shift - fitted
        objectives += [float(w @ values) for values in level.values(resid)]
        d_lo, d_hi = level.slopes(resid)
        # sum_i c_i [d_lo_i, d_hi_i] = c'mid -/+ |c|'half, and half is 0
        # off the check loss's kink
        mid, half = w * (d_lo + d_hi) / 2.0, w * (d_hi - d_lo) / 2.0
        kink = np.flatnonzero(half.any(axis=0))
        spread = half[:, kink] @ np.abs(x[kink])
        center = mid @ x
        lo[:, :p] += center - spread
        hi[:, :p] += center + spread
        total, width = mid.sum(axis=1), half.sum(axis=1)
        lo[:, p + k] += total - width
        hi[:, p + k] += total + width
    objectives += [float(lam_w @ np.abs(beta)) for lam_w, beta in zip(lam_ws, betas)]
    lo, hi = lo[:, :p + intercepts.shape[1]], hi[:, :p + intercepts.shape[1]]
    coef = np.concatenate([betas, intercepts], axis=1)
    lam_w = np.concatenate([lam_ws, np.zeros(intercepts.shape)], axis=1)
    # the penalty's subdifferential: lam_w * sign(b), or [-lam_w, lam_w] at 0
    at_zero = coef == 0.0
    lo += np.where(at_zero, -lam_w, lam_w * np.sign(coef))
    hi += np.where(at_zero, lam_w, lam_w * np.sign(coef))
    above, below = lo.max(axis=1, initial=0.0), -hi.min(axis=1, initial=0.0)
    # the larger, and 0.0 rather than -0.0 on a tie
    return objectives, np.where(below > above, below, above)

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
  iterations of each interior-point pass and `tol` is the relative
  complementarity gap at which they stop (a globbed fit, below, makes
  several passes, and its `iterations` sums them).  Two kinds of
  coordinate are set to 0 first: one whose penalty is
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
  failure.  A single fit is a stack of one.  The groups of an aggregated
  fit (`fit_unpenalized` and `fit_adaptive_lasso` given sequences) run as
  stacks too, each problem on rows of its own: x (B, n, p), each group's
  rows padded with inert zero rows up to the stack's longest (`_padded`),
  and each group with its own columns, padded with zero columns
  (`_own_columns`); `fit_aggregated` fits groups too large to gain from it
  (`_alone`, `_OWN_STACK`) one at a time instead, each as its single fit.
  A fit whose iterations stop short raises `NoConvergence`; one the
  polish leaves without a certified vertex is fitted again alone, as
  `_solve_lp_family`'s ladder sets out, and raises if that fails too.

* expectile / least squares: Newton steps on the residual-sign pattern.
  The loss is piecewise quadratic, so with the signs frozen the fit is a
  penalized least-squares problem in the p x p Gram matrix, solved exactly
  by a primal-dual active-set iteration (Fan, Jiao & Lu 2014) whose active
  block is one batched linear solve (without a penalty, the whole Gram
  system in its first round); a problem whose active block is singular or
  whose active sets cycle falls back to the direct solve without a penalty
  and to cyclic coordinate descent with soft-thresholding with one.  A
  backtracking step on the true objective follows, and the fit is exact
  once the signs repeat (a residual 0 up to rounding repeats either sign).
  Fits on the same rows (a BIC path) run as one stack in lockstep, as on
  the LP route: per Newton step their Gram matrices are formed together
  over blocks of rows and their frozen problems solved as one stack, and
  each problem stops once it converges.
  Every product is a problem's own, so its fit does not depend on its
  stack.  Pilot and penalized fits, with or without an intercept, all take
  this one route; a single fit is a stack of one, and the groups of an
  aggregated fit run as stacks on rows of their own, padding with weight 0.

Penalized fits on both routes run on a working set of columns
(`_fit_path`; Tibshirani et al. 2012, section 7): the unpenalized ones and
the _WORKING_SET with the smallest penalties, the others at an infinite
penalty, which the LP reach screen drops and the expectile route leaves
out.  Every column left out is then checked on the fit's exact
optimality condition |x_j'g| <= lam_j (g the LP vertex's duals summed over
the levels, or the expectile loss's derivative in the fitted values);
violators join the set and only their problems are solved again.

Median and quantile fits on at least _GLOB_ROWS shared rows glob their rows
(`_globbed`; Portnoy & Koenker 1997, section 3).  The interior point runs on
all rows only to the loose gap _GLOB_GAP; the rows with the smallest
residuals there form the band, _GLOB_BAND x m of them (m the problem's
columns and intercept, working set or not) but at most a share _GLOB_SHARE
of the rows, and the rows above and below it
collapse into one pseudo-row each.  While every collapsed row keeps its sign
the reduced LP has the full LP's objective and dual objective, so the
reduced problems are solved on rows of their own through the usual route,
and a collapsed row that crosses the fit joins the band for another round.
The ladder in `_solve_lp_family` orders these passes and their fallbacks.
Certificates are taken on the full rows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

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
    """Solver settings shared by the unpenalized and penalized fits.

    max_iter bounds each interior-point pass or Newton solve; a fit that
    makes several (a working set that grows, or the LP ladder's globbed
    passes, `_solve_lp_family`) may report more `iterations` than max_iter.
    """

    loss: LossKind
    lam: float = 0.0
    gamma: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-8
    fit_intercept: bool = False

    def __post_init__(self):
        # chained comparisons reject NaN as well as the out-of-range values
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and > 0")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")

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

    def __reduce__(self):
        # through the constructor, so that an unpickled result's arrays are
        # read-only again
        return EstimatorResult, tuple(getattr(self, f.name) for f in fields(self))

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


def _group(dataset: SurvivalDataset, weights: IpcwWeights):
    """(dataset, w, keep): the dataset, its checked weights as an array and
    the mask of its active rows (positive weight), none of them copied."""
    w = np.asarray(weights.w, dtype=float)
    if len(w) != dataset.n:
        raise DimensionMismatch("weights and dataset disagree on n")
    keep = w > 0.0
    if not np.any(keep):
        raise DegenerateWeights("no observation carries positive weight")
    return dataset, w, keep


def _active_rows(dataset: SurvivalDataset, w, keep):
    """A `_group`'s active rows (x, z, w), z the log follow-up times."""
    return dataset.x[keep], np.log(dataset.y[keep]), w[keep]


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
    single-level losses) every level's intercept is 0.  A count of
    intercepts that fits no level structure raises DimensionMismatch.
    """
    if loss.family == LossKind.COMPOSITE_QUANTILE:
        if intercepts is None:
            intercepts = np.zeros(loss.n_levels)
        if len(intercepts) != loss.n_levels:
            raise DimensionMismatch("composite quantile needs one intercept per level")
        return [LossLevel(loss, float(t), 1.0, float(b))
                for t, b in zip(loss.taus, intercepts)]
    if intercepts is not None and len(intercepts) > 1:
        raise DimensionMismatch(f"{loss.label()} takes at most one intercept")
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
# the tightest tol at which a problem that the polish leaves without a
# vertex is fitted again
_RETRY_TOL = 1e-10
# doubles per block of design rows that is copied at a time
_BLOCK = 1 << 18
# doubles per stacked vector of problems that run in lockstep: a stack's
# iterations hold a few dozen such vectors
_STACK = 1 << 14
# the most doubles of a group's design (active rows x p) for the groups of
# an aggregated fit to run as stacks: a group alone keeps its rows in cache
# through its iterations, and past about 0.5 MB re-reading every group's
# rows on each pass costs a stack more than the per-call overhead it saves
# (at p = 50 the crossover measured between 1000 and 2000 rows per group)
_OWN_STACK = 1 << 16
# penalized columns in a penalized fit's first working set (`_working_sets`):
# on `massive-fixed`'s six penalized fits (n = 2e4, p = 50, 2 to 6 columns
# in each support, seeds 1, 3 and 7) 2 to 8 columns took 0.14-0.19 s per
# round, 12 took 0.18-0.19 s, 16 took 0.20-0.25 s and all 50 0.40-0.46 s
_WORKING_SET = 8
# share of the bound max_i |x_ij| sum_i |g_i| on x_j'g within which a
# column left out of a working set counts as reaching lam_j (`_violators`)
_SCREEN_SLACK = 1e-9
# the fewest shared active rows at which a median or quantile fit globs its
# rows (`_globbed`): on `massive-fixed`'s design (p = 50, seeds 1, 3, 5 and
# 7, median and quantile, pilot and penalized fit) a band of 32 m rows took
# 0.16 s against 0.13-0.14 s at about 2000 active rows, tied at about 3000
# (0.19-0.21 s each), and took 0.22 against 0.25 s at about 4000 and 0.27
# against 0.38 s at about 6000; with the band capped by _GLOB_SHARE, the
# median and quantile K = 25 groups at n = 1e5 (about 3000 active rows,
# fitted one at a time) took 0.48-0.50 and 0.53-0.54 s against 0.62-0.71
# and 0.67-0.80 s unglobbed; `mc-bic`'s fits (about 1500 rows) stay below
_GLOB_ROWS = 2500
# relative complementarity gap at which a globbed fit's pass on all rows
# stops, its residuals then choosing the band: the same fits took 0.56-0.64 s
# at n = 2e4 and 2.54-2.64 s at n = 1e5 at 0.1, 0.67-0.70 and 2.68-2.74 s
# at 0.03, and 0.50-0.54 and 4.29-4.37 s at 0.3 (718 iterations at
# n = 1e5 against 416 at 0.1)
_GLOB_GAP = 0.1
# band rows per coordinate of a globbed problem, counting every column
# and intercept of the problem (a working set's 8 columns would leave 256
# rows, and 20-point paths at n = 1e5 took 2.7 s instead of 1.65 s in fix-up
# rounds): the same fits took 0.48-0.50 / 0.51 / 0.53-0.56 / 0.57-0.58 s at
# n = 2e4 with 16 / 24 / 32 / 48, and 3.42-3.52 / 2.55-2.64 / 2.36-2.47 /
# 2.14-2.53 s at n = 1e5; 32 lies between the two best
_GLOB_BAND = 32
# the largest share of a globbed problem's rows in its band: on those K = 25
# groups (about 345 band rows) 0.08 / 0.115 / 0.15 took 0.47-0.52 /
# 0.48-0.50 / 0.55-0.74 s (median) and 0.55-0.61 / 0.53-0.54 / 0.56-0.58 s
# (quantile); the cap lies above 32 m from about 14,200 rows at p = 50, so
# the K = 1 fits at n = 2e4 and 1e5 keep 32 m
_GLOB_SHARE = 0.115
# reduced solves of a globbed problem before one whose collapsed rows still
# cross the fit is solved on all its rows: no problem needed more than two
# (K = 1 pilot and penalized fits at n = 2e4, seeds 1-7, and at n = 1e5,
# seeds 1-7: 49 in one and 7 in two; 20-point median and quantile BIC paths
# at n = 2e4, seeds 1-3, and at n = 1e5, seeds 1 and 3: 205 in one, 5 in two)
_GLOB_ROUNDS = 3


def _row_blocks(x, stack=1):
    """Slices covering the rows of x (n, p), or of each problem's x_b in a
    stack (B, n, p), a few MB of x (times the stack's size) at a time."""
    step = max(1, _BLOCK // max(x.shape[-1] * stack, 1))
    return [slice(s, s + step) for s in range(0, x.shape[-2], step)]


def _weighted_grams(block, q, dim, blocks):
    """M' diag(q_b) M for each row q_b of q, (B, n) -> (B, dim, dim), summed
    over the row slices `blocks`, where block(rows) gives M's rows as a
    (rows, dim) array, or each problem's own as a (B, rows, dim) one.  Each
    problem's sum is its own matmul slice per block; the largest temporary
    is one block's (B, rows, dim) weighted copy."""
    g = np.zeros((len(q), dim, dim))
    for rows in blocks:
        mb = block(rows)
        g += np.matmul(np.swapaxes(mb, -1, -2), mb * q[:, rows, None])
    return g


def _times_x(v, x):
    """v_b'x for each row v_b of v, or v_b'x_b when x is a stack (B, n, p)
    of the problems' own rows."""
    return v @ x if x.ndim == 2 else np.matmul(v[:, None, :], x)[:, 0]


def _padded(groups):
    """The active rows of `_group`s as one stack: x (B, n, p), z and w
    (B, n), each problem's rows first and then zero rows (w = 0 marks them)
    up to the longest problem's n.  Each group's rows are gathered straight
    into the stack, with no copy of them beside it."""
    counts = [int(np.count_nonzero(keep)) for _, _, keep in groups]
    n = max(counts)
    x = np.zeros((len(groups), n, groups[0][0].p))
    z, w = np.zeros((len(groups), n)), np.zeros((len(groups), n))
    for b, ((dataset, wb, keep), k) in enumerate(zip(groups, counts)):
        np.compress(keep, dataset.x, axis=0, out=x[b, :k])
        np.compress(keep, wb, out=w[b, :k])
        z[b, :k] = np.log(dataset.y[keep])
    return x, z, w


def _stack_of(x, z, w, at):
    """The rows of the problems `at` (a slice) of a stack, as views: x, z
    and w themselves when the problems share them, else the problems' own,
    padded only to the longest of them."""
    if x.ndim == 2:
        return x, z, w
    n = int(np.count_nonzero(w[at] > 0.0, axis=1).max())
    return x[at, :n], z[at, :n], w[at, :n]


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
    box [-lam_j, lam_j].  Problems that differ only in their penalties form
    a stack: lam_w is (B, p) for B problems that penalize the same
    coordinates (a single fit is a stack of one), and lo and hi have one
    row per problem.  Problems on rows of their own (the groups of an
    aggregated fit) give x as (B, n, p) and z, w as (B, n):
    resp, col_reach and the products are then per problem, and a problem
    with fewer rows than n is padded with zero rows of w = 0.  A padded row
    of M is zero, intercept columns included, with response 0.  A problem
    with fewer penalized columns than the stack is padded with zero columns
    whose penalty is 0: their pseudo-rows e_j pin those coordinates at 0.
    Padded rows of either kind get the box [-1/2, 1/2] (an interior point
    needs positive width); `real` is 1.0 on each problem's own rows and 0.0
    on its padding (None without padding), and `widest` is the widest box
    of each problem's own observation rows.
    `fitted` and `adjoint` act on the last axis and `normal` on each row of
    a 2-d q, so one call serves a stack.
    M is not formed: every level shares x, and products with x run over all
    its columns or over blocks of its rows.
    """

    def __init__(self, x, z, w, levels, has_intercepts, lam_w):
        self.x, self.n_levels = x, len(levels)
        self.n, self.p = x.shape[-2:]
        self.n_obs = self.n_levels * self.n
        self.m = self.p + (self.n_levels if has_intercepts else 0)
        self.pen = np.flatnonzero(np.any(lam_w > 0.0, axis=tuple(range(lam_w.ndim - 1))))
        # the largest |entry| of each design column
        reach = np.maximum(x.max(axis=-2, initial=0.0), -x.min(axis=-2, initial=0.0))
        self.col_reach = np.concatenate([reach, np.ones(reach.shape[:-1] + (self.m - self.p,))],
                                        axis=-1)
        self.resp = np.concatenate([np.tile(z, self.n_levels),
                                    np.zeros(z.shape[:-1] + (len(self.pen),))], axis=-1)
        stack = lam_w.shape[:-1]
        obs_lo = np.concatenate([-lv.scale * (1.0 - lv.tau) * w for lv in levels], axis=-1)
        obs_hi = np.concatenate([lv.scale * lv.tau * w for lv in levels], axis=-1)
        self.lo = np.concatenate([np.broadcast_to(obs_lo, stack + obs_lo.shape[-1:]),
                                  -lam_w[..., self.pen]], axis=-1)
        self.hi = np.concatenate([np.broadcast_to(obs_hi, stack + obs_hi.shape[-1:]),
                                  lam_w[..., self.pen]], axis=-1)
        self.real = None
        if x.ndim == 3:
            real = np.concatenate([np.tile(w > 0.0, self.n_levels), lam_w[..., self.pen] > 0.0],
                                  axis=-1)
            if not real.all():
                self.real = real.astype(float)
                self.lo, self.hi = np.where(real, self.lo, -0.5), np.where(real, self.hi, 0.5)
        width = self.hi[..., :self.n_obs] - self.lo[..., :self.n_obs]
        self.widest = np.max(width if self.real is None else width * self.real[:, :self.n_obs],
                             axis=-1)

    def take(self, keep):
        """The problems `keep` (indices into the stack) as a stack of their own."""
        if len(keep) == len(self.lo) and np.array_equal(keep, np.arange(len(keep))):
            return self
        out = copy.copy(self)
        out.lo, out.hi, out.widest = self.lo[keep], self.hi[keep], self.widest[keep]
        if self.x.ndim == 3:
            out.x, out.resp, out.col_reach = self.x[keep], self.resp[keep], self.col_reach[keep]
            if self.real is not None:
                out.real = self.real[keep]
        return out

    def _per_level(self, v):
        return v[..., :self.n_obs].reshape(v.shape[:-1] + (self.n_levels, -1))

    def _row_sums(self, v):
        """Per observation, v summed over the levels."""
        if self.n_levels == 1:
            return v[..., :self.n_obs]
        return self._per_level(v).sum(axis=-2)

    def _own_per_level(self, v):
        """v's observation rows per level, 0 on the padding."""
        per_level = self._per_level(v)
        return per_level if self.real is None else per_level * self._per_level(self.real)

    def fitted(self, theta):
        """M theta."""
        stack = theta.shape[:-1]
        if self.x.ndim == 2:
            rows = theta[..., :self.p] @ self.x.T
        else:
            rows = np.matmul(self.x, theta[..., :self.p, None])[..., 0]
        if self.m > self.p:  # one intercept per level (only these have levels)
            shift = theta[..., self.p:, None]
            if self.real is not None:
                shift = shift * self._per_level(self.real)
            rows = (rows[..., None, :] + shift).reshape(stack + (-1,))
        if not self.pen.size:
            return rows
        return np.concatenate([rows, theta[..., self.pen]], axis=-1)

    def adjoint(self, v):
        """M'v."""
        out = np.empty(v.shape[:-1] + (self.m,))
        out[..., :self.p] = _times_x(self._row_sums(v), self.x)
        if self.m > self.p:
            out[..., self.p:] = self._own_per_level(v).sum(axis=-1)
        if self.pen.size:
            out[..., self.pen] += v[..., self.n_obs:]
        return out

    def normal(self, q):
        """M' diag(q) M, for a stack of q's (B, rows) -> (B, m, m)."""
        g = np.zeros((len(q), self.m, self.m))
        g[:, :self.p, :self.p] = _weighted_grams(lambda rows: self.x[..., rows, :],
                                                 self._row_sums(q), self.p,
                                                 _row_blocks(self.x, len(q)))
        if self.m > self.p:
            per_level = self._own_per_level(q)
            cross = per_level @ self.x
            g[:, self.p:, :self.p] = cross
            g[:, :self.p, self.p:] = cross.transpose(0, 2, 1)
            at = np.arange(self.p, self.m)
            g[:, at, at] = per_level.sum(axis=2)
        g[:, self.pen, self.pen] += q[:, self.n_obs:]
        return g

    def design(self, rows):
        """The rows of M with the given indices (an array of any shape, whose
        first axis runs over the problems when they have rows of their own),
        each as a length-m vector on a new last axis."""
        rows = np.asarray(rows)
        out = np.zeros(rows.shape + (self.m,))
        obs = rows < self.n_obs
        level, i = np.divmod(rows[obs], self.n)
        problem = np.nonzero(obs)[0]
        out[obs, :self.p] = self.x[i] if self.x.ndim == 2 else self.x[problem, i]
        if self.m > self.p:
            out[obs, self.p + level] = 1.0 if self.real is None else self.real[problem, i]
        out[~obs, self.pen[rows[~obs] - self.n_obs]] = 1.0
        return out

    def dual_objective(self, a):
        """resp'a for each problem's row of a."""
        return a @ self.resp if self.resp.ndim == 1 else _row_dot(a, self.resp)


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
    times its objective, or when it cannot go on.  A padded row (`lp.real`
    0) never moves: its targets are 0, so it adds nothing to a problem's
    gap, centering target, pair count, step lengths or products.  Returns
    (a, theta, iterations, failures), a row or entry per problem:
    failures[b] is None when problem b met tol, else why its iterations
    stopped.
    """
    lo, resp, real = lp.lo, lp.resp, lp.real
    x, s = -lo, lp.hi.copy()
    rhs = lp.adjoint((lp.hi - lo) * resp)
    try:
        theta = np.linalg.solve(normal_u, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        theta = np.stack([np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(normal_u, rhs)])
    r = resp - lp.fitted(theta)
    # z - w = -r exactly, both strictly positive (a padded row's r is 0)
    pairs = x.shape[1] if real is None else real.sum(axis=1, keepdims=True)
    shift = 1e-3 * np.maximum(np.sum(np.abs(r), axis=1, keepdims=True) / pairs, 1e-12)
    z, w = np.maximum(-r, 0.0) + shift, np.maximum(r, 0.0) + shift
    a_out, theta_out = np.empty_like(x), np.empty_like(theta)
    steps, failures = np.zeros(len(x), dtype=int), [None] * len(x)
    live = np.arange(len(x))  # the problems still iterating, in the rows of the state arrays
    stuck = []  # rows that hit a singular system: they stay put and stop at the next check

    def own(v):  # v on each problem's own rows, 0 on its padding
        return v if real is None else v * real

    for it in range(int(max_iter) + 1):
        gap = _row_dot(own(z), x) + _row_dot(own(w), s)
        met = gap <= tol * np.maximum(1.0, np.abs(lp.dual_objective(lo + x)))
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
            keep = np.flatnonzero(~stop)
            live, x, s, z, w, theta, gap = (v[keep] for v in (live, x, s, z, w, theta, gap))
            if not len(live):
                break
            lp = lp.take(keep)
            lo, real = lp.lo, lp.real
            if real is not None:
                pairs = pairs[keep]
        q = 1.0 / (z / x + w / s)
        normal = lp.normal(q)
        stuck = []

        def direction(sig_x, sig_s):
            # x dz + z dx = sig_x, s dw - w dx = sig_s, M'dx = 0, dz - dw = M dtheta
            sig_x, sig_s = own(sig_x), own(sig_s)
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
            affine = (_row_dot(own(z + td * dz), x + tp * dx)
                      + _row_dot(own(w + td * dw), s - tp * dx))
            mu = (gap * (affine / gap) ** 3)[:, None] / (2 * pairs)
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
    """Per problem of lp, the unpenalized slope coordinates whose columns of
    M are linearly dependent on the intercepts' and on the unpenalized
    columns before them.

    Only these can leave M without full column rank, since a penalized
    coordinate has its own pseudo-row; they add nothing to the fit and no
    penalty, so an optimum leaves them at 0.  normal_u = M' diag(u) M with
    u > 0 (a stack of them) answers at once, in one batched call, for the
    problems whose columns are clearly independent; for any other, the
    triangular factor of its observation rows on these columns, which has
    their inner products, is built a block of rows at a time and its
    columns are tried in turn.
    """
    free = np.r_[lp.p:lp.m, np.setdiff1d(np.arange(lp.p), lp.pen)]
    found = []
    for k, clear in enumerate(np.atleast_1d(_clearly_independent(normal_u[:, free][:, :, free]))):
        if clear:
            found.append(np.zeros(0, dtype=int))
            continue
        one, r, n = lp.take([k]), np.zeros((0, len(free))), lp.n
        for level in range(lp.n_levels):
            for rows in _row_blocks(lp.x):
                block = one.design((level * n + np.arange(n)[rows])[None])[0][:, free]
                r = np.linalg.qr(np.vstack([r, block]), mode="r")
        kept = _first_independent(lambda at: r[:, at].T, len(free), len(r), len(free))
        found.append(np.setdiff1d(free, free[kept]))
    return found


def _vertex_points(lp: _DualRows, obs, free):
    """Per problem g of lp, the point with residual 0 on the observation
    rows obs[g] and its coordinates outside free[g] at exactly 0 (obs and
    free are G x r, free sorted); returns (theta, the square systems solved,
    residuals, flat), `flat` marking the residuals that are 0 up to
    rounding.  Raises LinAlgError if a system is singular."""
    square = np.take_along_axis(lp.design(obs), free[:, None, :], axis=2)
    theta = np.zeros((len(obs), lp.m))
    resp = np.take_along_axis(np.broadcast_to(lp.resp, (len(obs), lp.resp.shape[-1])), obs, axis=1)
    np.put_along_axis(theta, free, np.linalg.solve(square, resp[..., None])[..., 0], axis=1)
    fitted = lp.fitted(theta)
    resid = lp.resp - fitted
    flat = np.abs(resid) <= _ROUNDING * (np.abs(lp.resp) + np.abs(fitted) + 1.0)
    return theta, square, resid, flat


def _vertices(lp: _DualRows, basic, a_interior):
    """The vertices of the G problems of lp, problem g with basic rows
    basic[g] (G x m, the same number of observation rows in each).

    Basic observation rows get residual 0 and a basic pseudo-row pins its
    coordinate to exactly 0.  Every non-basic dual sits at the end of its
    box that its residual's sign selects (a residual 0 up to rounding, as at
    ties, duplicated rows and padding, keeps its interior dual), and the
    basic duals solve M'a = 0.  The vertex is optimal iff they lie in their
    boxes.  Returns (theta, a, certified, snap, dual objective), a row or
    entry per problem: `snap` marks coordinates that are 0 up to rounding,
    which `_snapped` pins.  Raises LinAlgError if a system is singular.
    """
    count, n_obs, lo, hi = len(basic), lp.n_obs, lp.lo, lp.hi
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
    slack = 1e-9 * lp.widest[:, None]
    certified = np.take_along_axis((a >= lo - slack) & (a <= hi + slack), basic, axis=1)
    rounding = _ROUNDING * (1.0 + np.max(np.abs(lp.resp), axis=-1, keepdims=True))
    snap = (theta != 0.0) & (np.abs(theta) * lp.col_reach <= rounding)
    return theta, a, certified.all(axis=1), snap, lp.dual_objective(a)


def _snapped(lp: _DualRows, basic, a, lo, hi, theta, snap):
    """theta, the certified vertex of the one problem of lp with basic rows
    `basic`, duals a and boxes lo, hi, with its coordinates marked `snap` (0
    up to rounding, as at a degenerate vertex) pinned at 0 as well, as long
    as the same duals certify the re-solved point; else theta as it is."""
    obs = basic[basic < lp.n_obs]
    pins = np.union1d(lp.pen[basic[basic >= lp.n_obs] - lp.n_obs], np.flatnonzero(snap))
    free = np.setdiff1d(np.arange(lp.m), pins)
    rows = _first_independent(lambda at: lp.design(obs[at][None])[0][:, free],
                              len(obs), len(free), len(free))
    if len(rows) < len(free):
        return theta
    snapped, _, resid, flat = _vertex_points(lp, obs[rows][None], free[None])
    # complementary slackness of `a` with the re-solved residuals
    slack = 1e-9 * float(lp.widest[0])
    if np.all(flat | ((resid > 0.0) & (a >= hi - slack)) | ((resid < 0.0) & (a <= lo + slack))):
        return snapped[0]
    return theta


def _polish(lp: _DualRows, live, a, theta):
    """The vertices of the problems `live` of a stack that the stack's
    interior solution (a, theta) points at.

    Each problem's rows are ranked by how far inside its box each dual is,
    and, for the problems that ranking leaves, by how small each residual is
    at theta; padded observation rows rank last and padded pseudo-rows
    first, as only they pin their zero columns.  The first m rows of a
    ranking are its basic rows when they are independent (one batched QR,
    the `_first_independent` test); else `_first_independent` searches the
    whole ranking for them.  Problems with the same number of basic observation
    rows get their vertices from one batched `_vertices`, each alone if that
    is singular, and a certified vertex is `_snapped`.  Returns {problem:
    (theta, dual objective, duals)} for the certified problems; a snapped
    vertex keeps the duals that certified it.
    """
    n_obs, m = lp.n_obs, lp.m
    lp, a = lp.take(live), a[live]
    key = -np.minimum(a - lp.lo, lp.hi - a) / (lp.hi - lp.lo)
    polished, left, ranked = {}, np.arange(len(live)), lp
    for ranking in ("inside", "residual"):
        if ranking == "residual":
            left = np.array([k for k in left if live[k] not in polished], dtype=int)
            if not left.size:
                break
            ranked = lp.take(left)
            key = np.abs(ranked.resp - ranked.fitted(theta[live[left]]))
        if ranked.real is not None:  # padded observations last, padded pseudo-rows first
            key = np.where(ranked.real > 0.0, key, np.r_[np.full(n_obs, np.inf),
                                                         np.full(len(lp.pen), -np.inf)])
        order = np.argsort(key, axis=1, kind="stable")
        basic = order[:, :m]
        rows = ranked.design(basic)
        r = np.linalg.qr(rows.transpose(0, 2, 1), mode="r")
        found = np.all(np.abs(np.diagonal(r, axis1=1, axis2=2))
                       > _DEPENDENT * np.linalg.norm(rows, axis=2), axis=1)
        for g in np.flatnonzero(~found):
            one = ranked.take([g])
            chosen = _first_independent(lambda at: one.design(order[g, at][None])[0],
                                        order.shape[1], m, m)
            if len(chosen) == m:
                basic[g], found[g] = order[g, chosen], True
        counts = np.count_nonzero(basic < n_obs, axis=1)
        for count in np.unique(counts[found]):
            tries = [np.flatnonzero(found & (counts == count))]
            while tries:
                group = tries.pop()
                k = left[group]
                try:
                    vertex, duals, certified, snap, dual = _vertices(lp.take(k), basic[group], a[k])
                except np.linalg.LinAlgError:
                    if len(group) > 1:
                        tries += [group[i:i + 1] for i in range(len(group))]
                    continue
                for i in np.flatnonzero(certified):
                    if snap[i].any():
                        one = lp.take(k[i:i + 1])
                        vertex[i] = _snapped(one, basic[group[i]], duals[i], one.lo[0], one.hi[0],
                                             vertex[i], snap[i])
                    polished[live[k[i]]] = vertex[i], float(dual[i]), duals[i]
    return polished


def _solve_lp_family(x, z, w, loss: LossKind, lam_w, fit_intercept: bool, tol, max_iter):
    """Fit an LP-family loss at each row of penalties lam_w (B x p):
    interior points on the duals in lockstep, then a vertex per problem.
    The problems share the rows x (n, p), z and w, or each has its own, as
    x (B, n, p), z and w (B, n) padded with rows of w = 0 (`_padded`).

    A coordinate whose penalty is at least its problem's reach_j = sum_r
    |m_rj| max(|lo_r|, |hi_r|), the most its dual constraint can see, is 0
    at every optimum, and the problem screens it out; so does a column left
    out of the problem's working set, whose penalty is infinite (`_fit_path`).
    A penalty below eps reach_j, the rounding of x_j'a, is fitted as 0.
    Problems run in lockstep stacks of about _STACK doubles per stacked
    vector (padded rows included), and a stack keeps the union of its
    problems' columns.  Where a problem screens a column of the union, its
    penalty is clipped to twice the stack's largest reach_j: that
    coordinate's dual constraint is then slack at every feasible a, so it is
    0 at every optimum and the problem's optimum set is its screened
    problem's (this also keeps the pilot-zero floor's huge penalties out of
    the iterations).  `_polish` then ranks and certifies such a problem as
    it is posed: a vertex with every observation dual in its box has
    |x_j'a| <= reach_j, so any vertex it certifies is optimal for the
    screened problem too.  An unpenalized coordinate whose column depends on
    the others (`_dependent_columns`: duplicated covariates, a constant one
    beside an intercept, fewer active rows than coordinates) is dropped.  On
    shared rows only intercepts and unpenalized columns enter that test, so
    a rung's first stack answers for all its stacks.

    The problems climb one ladder: a work list of rungs (rows, problems,
    tol, glob), each run in stacks through one body (columns and clip, the
    dependent-column test, the interior point, then `_polish` or, on a glob
    rung, `_globbed`) that closes each problem or hands it to a later rung:
    1. first, one rung per pattern of positive penalties, on the given rows
       at tol (a lambda of 0 beside positive ones runs apart, as a
       pseudo-row's box cannot be empty);
    2. glob: a first rung of median or quantile fits on at least _GLOB_ROWS
       shared rows stops its interior point at the loose gap _GLOB_GAP, and
       `_globbed` solves its problems on rows chosen by the residuals there
       (a band of _GLOB_BAND x m rows, m counting all p columns and the
       intercept, at most the share _GLOB_SHARE of the rows); its vertex,
       dual objective and g are the reduced problem's, g on the full rows;
    3. plain: the problems that one `_globbed` call leaves open (rows still
       crossing after _GLOB_ROUNDS reduced solves, or a failed reduced
       solve), as one unglobbed stack on the shared rows;
    4. alone: one problem as a stack of one on its own rows, unglobbed, at
       the rung's tol: one on rows of its own with a dependent unpenalized
       column, and one whose stack clipped its penalties that the polish
       leaves (the stack's central path is not its own, and at a degenerate
       optimum its duals can stop too far from their box ends for the
       vertex check);
    5. alone at max(tol / 100, _RETRY_TOL), down to _RETRY_TOL: any other
       problem the polish leaves, whose iterations stopped too far from a
       near-degenerate optimum to tell its basic rows (a row off the vertex
       with a residual of 1e-7, say).
    A pass that stops short, or a problem that no rung certifies, raises
    NoConvergence.  A fit's iterations are the pass that closed it plus the
    loose and reduced passes of the rungs before it (a pass retried alone
    does not count), so `max_iter` bounds each pass.

    Returns, per problem, (beta, intercepts, iterations, dual objective, g),
    or the NoConvergence it raised because its iterations stopped short or
    no vertex was certified.  g, given only to a problem with a column left
    out, is its vertex's observation duals summed over the levels: the full
    problem's dual constraint of a column j left out is |x_j'g| <= lam_j.
    """
    levels = loss_levels(loss)
    widest = w * sum(lv.scale * max(lv.tau, 1.0 - lv.tau) for lv in levels)

    def reach_of(x, widest):
        return sum(np.abs(x[rows]).T @ widest[rows] for rows in _row_blocks(x))

    if x.ndim == 3:
        n_own = np.count_nonzero(w > 0.0, axis=1)  # each problem's own rows come first
        reach = np.array([reach_of(x[b, :n], widest[b, :n]) for b, n in enumerate(n_own)])
    else:
        reach = np.broadcast_to(reach_of(x, widest), lam_w.shape)
    # the interior point divides by the width of a pseudo-row's box, which
    # overflows at such penalties (a subnormal lam_j, say)
    lam_w = np.where(lam_w < np.finfo(float).eps * reach, 0.0, lam_w)
    p = x.shape[-1]
    has_intercepts = fit_intercept or loss.family == LossKind.COMPOSITE_QUANTILE
    own = lam_w < reach
    outcomes, spent = [None] * len(lam_w), np.zeros(len(lam_w), dtype=int)

    def close(b, outcome):
        if not isinstance(outcome, CensLassoError):
            outcome = outcome[:2] + (outcome[2] + int(spent[b]),) + outcome[3:]
        outcomes[b] = outcome

    def alone(b, tol):
        rows = (x[b, :n_own[b]], z[b, :n_own[b]], w[b, :n_own[b]]) if x.ndim == 3 else (x, z, w)
        return rows, np.array([b]), tol, False

    patterns = {}
    for b, row in enumerate(lam_w > 0.0):
        patterns.setdefault(row.tobytes(), []).append(b)
    glob = x.ndim == 2 and len(levels) == 1 and len(z) >= _GLOB_ROWS and tol < _GLOB_GAP
    ladder = [(None, np.array(group), tol, glob) for group in patterns.values()]
    for rows, problems, tol, glob in ladder:
        if rows is None:  # a first rung, whose rows are gathered as it runs
            whole = x.ndim == 2 or len(problems) == len(lam_w)
            rows = (x, z, w) if whole else (x[problems], z[problems], w[problems])
        grouped = rows[0].ndim == 3
        size = max(1, _STACK // (len(levels) * rows[0].shape[-2] + p))
        dependent = None  # on shared rows, found on the rung's first stack with coordinates
        for stack in [slice(start, start + size) for start in range(0, len(problems), size)]:
            at = problems[stack]
            xs, zs, ws = _stack_of(*rows, stack)
            if grouped:
                kept, xs, boxes = _own_columns(xs, lam_w[at], own[at])
                cols = dict(zip(at, kept))
            else:
                cols = np.flatnonzero(own[at].any(axis=0))
                if dependent is not None:
                    cols = np.setdiff1d(cols, dependent)
                boxes = np.where(own[at][:, cols], lam_w[at][:, cols], 2.0 * reach[at[0], cols])
                xs = xs if len(cols) == p else xs.take(cols, axis=-1)
            lp = _DualRows(xs, zs, ws, levels, has_intercepts, boxes)
            if lp.m:
                normal_u = lp.normal(lp.hi - lp.lo)
                if grouped:
                    apart = [k for k, found in enumerate(_dependent_columns(lp, normal_u))
                             if found.size]
                    ladder += [alone(at[k], tol) for k in apart]
                    if apart:
                        stay = np.delete(np.arange(len(at)), apart)
                        at, lp, normal_u = at[stay], lp.take(stay), normal_u[stay]
                        if not len(at):
                            continue
                elif dependent is None:
                    found = _dependent_columns(lp.take([0]), normal_u[:1])[0]
                    dependent = cols[found]
                    if found.size:
                        kept = np.delete(np.arange(lp.m), found)
                        cols, boxes = np.delete(cols, found), np.delete(boxes, found, axis=1)
                        lp = _DualRows(np.delete(lp.x, found, axis=1), zs, ws, levels,
                                       has_intercepts, boxes)
                        normal_u = normal_u[:, kept][:, :, kept]
                a, theta, steps, failures = _frisch_newton(lp, normal_u,
                                                           _GLOB_GAP if glob else tol, max_iter)
            else:  # every coordinate dropped: the vertex is theta = ()
                a, theta = np.zeros(lp.lo.shape), np.zeros((len(at), 0))
                steps, failures = np.zeros(len(at), dtype=int), [None] * len(at)
            live = np.flatnonzero([failure is None for failure in failures])
            for k in np.flatnonzero([failure is not None for failure in failures]):
                close(at[k], NoConvergence(f"{loss.label()} fit {failures[k]}"))
            if glob and lp.m:
                if not live.size:
                    continue
                resid = zs - lp.fitted(theta[live])[:, :lp.n]
                band = min(_GLOB_BAND * (p + lp.m - lp.p), math.ceil(_GLOB_SHARE * len(zs)))
                solved, passes = _globbed(*rows, resid, band, loss, lam_w[at[live]],
                                          fit_intercept, tol, max_iter)
                spent[at[live]] += steps[live] + passes
                for b, outcome in zip(at[live], solved):
                    if outcome is not None:
                        close(b, outcome)
                ladder.append((rows, at[live][[out is None for out in solved]], tol, False))
                continue
            polished = _polish(lp, live, a, theta)
            for k, b in zip(live, at[live]):
                if k in polished:
                    coef, dual_objective, duals = polished[k]
                    beta = np.zeros(p)
                    used = cols[b] if grouped else cols
                    beta[used] = coef[:len(used)]
                    # a column left out at an infinite penalty is checked on x_j'g
                    g = lp._row_sums(duals) if np.isinf(lam_w[b]).any() else None
                    close(b, (beta, coef[lp.p:], int(steps[k]), dual_objective, g))
                elif not grouped and not own[b, cols].all():
                    ladder.append(alone(b, tol))  # clipped: the stack's central path is not its own
                elif tol > _RETRY_TOL:  # stopped too far from a near-degenerate vertex
                    ladder.append(alone(b, max(tol * 1e-2, _RETRY_TOL)))
                else:
                    close(b, NoConvergence(
                        f"{loss.label()} fit: the interior point converged in {steps[k]} "
                        "iterations but no vertex it ranked passed the optimality check"))
    return outcomes


def _globbed(x, z, w, resid, size, loss, lam_w, fit_intercept, tol, max_iter):
    """Median or quantile fits on the shared rows x (n, p), z and w, one per
    row of penalties lam_w, each solved on a reduced set of rows chosen by
    its residuals resid (B, n) at a loose interior point (Portnoy & Koenker
    1997, section 3): the glob rung of `_solve_lp_family`'s ladder.

    A problem's band is the `size` rows (at most n) with the smallest
    |resid|.  The rows outside it above the fit collapse into one pseudo-row,
    those below into another (`_reduced`), each of weight their weights' sum
    and with their weighted means as design and response.  While every
    collapsed row keeps its sign the loss is linear on each side, so the
    reduced LP has the full LP's objective and dual objective; off that set
    the reduced loss is the lower of the two, by convexity.  So a reduced
    optimum at which every collapsed row keeps its sign is a full optimum,
    and its vertex with the collapsed rows' duals at their box ends is a full
    dual vertex.  The reduced problems run as one stack on rows of their own,
    through `_solve_lp_family`'s own ladder.  A collapsed row whose residual
    at the reduced fit has the other sign, or is 0 up to rounding, has
    crossed: it joins its band and only the problems that had one are solved
    again, for at most _GLOB_ROUNDS solves.  Returns (outcomes, passes): per
    problem, the outcome of the reduced solve that closed it, with g on the
    full rows (the band rows' reduced duals, a collapsed row's scale tau w_i
    above the fit and -scale (1 - tau) w_i below it), or None for one still
    crossing or whose reduced solve failed, which the caller's plain rung
    takes; and the iterations of its reduced solves that came back and did
    not close it.
    """
    (level,) = loss_levels(loss)
    n = len(z)
    size = min(size, n)
    band = np.zeros(resid.shape, dtype=bool)
    np.put_along_axis(band, np.argpartition(np.abs(resid), size - 1, axis=1)[:, :size], True,
                      axis=1)
    above = ~band & (resid > 0.0)
    below = ~band & ~above
    outcomes, passes = [None] * len(lam_w), np.zeros(len(lam_w), dtype=int)
    todo = np.arange(len(lam_w))
    for _ in range(_GLOB_ROUNDS):
        if not todo.size:
            break
        solved = _solve_lp_family(*_reduced(x, z, w, band[todo], above[todo], below[todo]),
                                  loss, lam_w[todo], fit_intercept, tol, max_iter)
        fits = [(k, out) for k, out in zip(todo, solved) if not isinstance(out, CensLassoError)]
        if not fits:
            break
        at, todo = np.array([k for k, _ in fits]), []
        fitted = np.array([out[0] for _, out in fits]) @ x.T
        fitted += np.array([out[1][0] if len(out[1]) else 0.0 for _, out in fits])[:, None]
        r = z - fitted
        flat = np.abs(r) <= _ROUNDING * (np.abs(z) + np.abs(fitted) + 1.0)
        crossed = (above[at] & ((r < 0.0) | flat)) | (below[at] & ((r > 0.0) | flat))
        for i, (k, (beta, intercepts, steps, dual, g)) in enumerate(fits):
            if crossed[i].any():
                passes[k] += steps
                band[k] |= crossed[i]
                above[k] &= ~crossed[i]
                below[k] &= ~crossed[i]
                todo.append(k)
                continue
            if g is not None:
                full = np.where(above[k], level.scale * level.tau * w,
                                np.where(below[k], -level.scale * (1.0 - level.tau) * w, 0.0))
                full[band[k]] = g[:np.count_nonzero(band[k])]
                g = full
            outcomes[k] = (beta, intercepts, steps, dual, g)
        todo = np.array(todo, dtype=int)
    return outcomes, passes


def _reduced(x, z, w, band, above, below):
    """Each problem's reduced rows for `_globbed`, as a stack on rows of its
    own (x (B, rows, p), z and w (B, rows)): its band rows (a row of the
    mask band) in order, then one pseudo-row for its rows marked above and
    one for those marked below, each with the weight sum_i w_i of its rows
    and their weighted means sum_i w_i x_i / W and sum_i w_i z_i / W as
    design and response (an empty side adds no row), then zero rows of
    w = 0 up to the stack's longest."""
    counts = np.count_nonzero(band, axis=1)
    sides = []
    for side in (above, below):
        weight = np.where(side, w, 0.0)
        total = weight.sum(axis=1)
        share = np.divide(1.0, total, out=np.zeros_like(total), where=total > 0.0)
        sides.append((total, (weight @ x) * share[:, None], (weight @ z) * share))
    rows = int((counts + sum(total > 0.0 for total, _, _ in sides)).max())
    xr = np.zeros((len(band), rows, x.shape[1]))
    zr, wr = np.zeros((len(band), rows)), np.zeros((len(band), rows))
    for k, count in enumerate(counts):
        at = np.flatnonzero(band[k])
        np.take(x, at, axis=0, out=xr[k, :count])
        zr[k, :count], wr[k, :count] = z[at], w[at]
        for total, design, resp in sides:
            if total[k] > 0.0:
                xr[k, count], zr[k, count], wr[k, count] = design[k], resp[k], total[k]
                count += 1
    return xr, zr, wr


def _own_columns(x, lam_w, own, pad=0.0):
    """Each problem of a stack on rows of its own (x (B, n, p), penalties
    lam_w (B, p)) given only the columns it keeps (`own`): its unpenalized
    ones first (on the LP route the same for all, as its stacks share their
    pattern), then its own penalized ones, then zero columns up to the
    stack's most, at the penalty `pad` (0 marks them as padding for
    `_DualRows`).  Returns (each problem's columns, its x, its penalties),
    the last two as stacks (B, n, slots) and (B, slots); only the kept
    columns are copied."""
    kept = [np.r_[np.flatnonzero(row == 0.0), np.flatnonzero(keep & (row > 0.0))]
            for keep, row in zip(own, lam_w)]
    every = np.arange(x.shape[2])
    if all(np.array_equal(cols, every) for cols in kept):
        return kept, x, lam_w
    slots = max(len(cols) for cols in kept)
    xs, boxes = np.zeros(x.shape[:2] + (slots,)), np.full((len(x), slots), pad)
    for b, cols in enumerate(kept):
        xs[b, :, :len(cols)] = x[b][:, cols]
        boxes[b, :len(cols)] = lam_w[b, cols]
    return kept, xs, boxes


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
    |b_j| from beta_k, by `_active_set_lasso` (whose first round solves an
    unpenalized one's G_k b = c_k), and the problems it gives up by
    `_gram_lasso` (the direct solve, or coordinate descent of at most
    max_iter sweeps).  Returns (b, descended)."""
    b, descended = _active_set_lasso(gram, lin, lam_w, beta, max_iter)
    for k in np.flatnonzero(~descended):
        b[k], descended[k] = _gram_lasso(gram[k], lin[k], lam_w[k], beta[k], tol, max_iter)
    return b, descended


def _expectile_newton(x, z, w, tau, lam_w, beta, tol, max_iter):
    """Weighted expectile (adaptive) lasso by Newton steps on sign patterns,
    for a stack of problems: a row of penalties lam_w each, from the start
    beta (one for all, or a row per problem), on the shared rows x (n, p),
    z, w or on rows of their own, x (B, n, p), z and w (B, n), where
    padding has w = 0 and zero design and response, and so adds nothing.

    The loss w_i |tau - 1{r_i < 0}| r_i^2 is quadratic while the residual
    signs stay put, so each step freezes every live problem's signs, forms
    their Gram matrices X'A_kX and vectors X'A_kz together over blocks of
    rows (`_weighted_grams` on each block's [x | z], joined alike for both
    row shapes), minimizes the penalized quadratics exactly
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
    # on rows of their own, z and w keep the live problems' rows only, and x
    # stays the caller's stack, read for the live problems where it is used
    grouped = x.ndim == 3

    def live_x(at=None):  # the design rows of the live problems `at` (all of them)
        if not grouped:
            return x
        at = live if at is None else live[at]
        return x if len(at) == count else x[at]

    def objective(b, lam, at=None):
        zs, ws = (z, w) if at is None or not grouped else (z[at], w[at])
        r = zs - np.matmul(live_x(at), b[:, :, None])[:, :, 0]
        asym = np.where(r < 0.0, 1.0 - tau, tau)
        return _row_dot(asym * r * r, ws) + _row_dot(lam, np.abs(b)), r

    def design(rows):  # a block of rows of [x | z], shared or each live problem's own
        xs = x[..., rows, :]
        if grouped and len(live) < count:
            xs = xs[live]
        return np.concatenate([xs, z[..., rows, None]], axis=-1)

    b = np.array(np.broadcast_to(np.asarray(beta, dtype=float), (count, dim)))
    beta_out, steps, converged = b.copy(), np.full(count, int(max_iter)), np.zeros(count, bool)
    live = np.arange(count)
    obj, r = objective(b, lam_w)
    for step in range(1, int(max_iter) + 1):
        lam = lam_w[live]
        negative = r < 0.0
        g = _weighted_grams(design, w * np.where(negative, 1.0 - tau, tau), dim + 1, blocks)
        target, descended = _frozen_lasso(np.ascontiguousarray(g[:, :dim, :dim]),
                                          np.ascontiguousarray(g[:, :dim, dim]),
                                          lam, b, tol, max_iter)
        new_obj, new_r = objective(target, lam)
        # where the signs repeat, the frozen quadratic is exact on the segment;
        # a residual 0 up to rounding (an interpolated row, or padding) keeps
        # its sign, as it adds nothing to the gradient whichever weight it
        # was frozen with
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
                new_obj[trying], new_r[trying] = objective(trial, lam[trying], trying)
                trying = trying[new_obj[trying] >= obj[trying]]
        moved = np.where(same[:, None], target, b + t[:, None] * direction)
        b, obj, r = np.where(stalled[:, None], b, moved), new_obj, new_r
        done = stalled | (same & descended)
        beta_out[live[done]], steps[live[done]] = b[done], step
        converged[live[done]] = ~stalled[done]
        live, b, obj, r = live[~done], b[~done], obj[~done], r[~done]
        if not len(live):
            break
        if grouped and done.any():
            z, w = z[~done], w[~done]
    beta_out[live] = b
    return beta_out, steps, converged


def _solve_expectile(x, z, w, loss: LossKind, lam_ws, config: FitConfig, beta_start):
    """Fit an expectile / least-squares loss at each row of penalties lam_ws
    (B x p) on shared or own rows, as `_solve_lp_family` takes them, from
    beta_start (one for all, or a row per problem); an intercept is one more
    column, never penalized (0 on padding).  A column at an infinite penalty
    (outside the problem's working set, `_fit_path`) is left out: on shared
    rows every problem fits the columns that some problem keeps, on own rows
    each its own (`_own_columns`), padded with zero columns whose positive
    penalty keeps them inactive.  Problems run in lockstep stacks of about
    _STACK / n problems (`_expectile_newton`).  Returns, per problem, (beta,
    intercepts, iterations, None, g), as `_solve_lp_family` does but without
    a dual objective, or the NoConvergence it raised; g, given only to a
    problem with a column left out, is 2 w_i |tau - 1{r_i < 0}| r_i at its
    fit, so that a column j left out is optimal at 0 iff |x_j'g| <= lam_j."""
    k, p = int(config.fit_intercept), x.shape[-1]
    start = np.zeros(p) if beta_start is None else np.asarray(beta_start, dtype=float)
    kept = np.isfinite(lam_ws)
    cols = None  # each problem's columns, when some are left out
    if not kept.all():
        start = np.broadcast_to(start, lam_ws.shape)
        if x.ndim == 2:
            union = np.flatnonzero(kept.any(axis=0))
            x, lam_ws, start = x.take(union, axis=1), lam_ws[:, union], start[:, union]
            cols = [union] * len(lam_ws)
        else:
            cols, x, lam_ws = _own_columns(x, lam_ws, kept, pad=1.0)
            start = np.array([np.r_[s[c], np.zeros(x.shape[2] - len(c))]
                              for s, c in zip(start, cols)])
    if k:
        # shared rows are active rows, so every w > 0 there
        x = np.concatenate([(w > 0.0).astype(float)[..., None], x], axis=-1)
        lam_ws = np.column_stack([np.zeros(len(lam_ws)), lam_ws])
        start = np.concatenate([np.zeros(start.shape[:-1] + (1,)), start], axis=-1)
    size = max(1, _STACK // x.shape[-2])
    outcomes = []
    for at in range(0, len(lam_ws), size):
        stack = slice(at, at + size)
        xs, zs, ws = _stack_of(x, z, w, stack)
        coefs, steps, converged = _expectile_newton(
            xs, zs, ws, loss.tau, lam_ws[stack], start if start.ndim == 1 else start[stack],
            config.tol, config.max_iter)
        if cols is not None:
            r = zs - np.matmul(xs, coefs[:, :, None])[:, :, 0]
            grads = 2.0 * ws * np.where(r < 0.0, 1.0 - loss.tau, loss.tau) * r
        for i, (coef, count, ok) in enumerate(zip(coefs, steps, converged)):
            if not ok:
                outcomes.append(NoConvergence(
                    f"{loss.label()} fit did not converge ({count} iterations)"))
                continue
            beta, g = coef[k:], None
            if cols is not None:
                used = cols[at + i]
                beta, g = np.zeros(p), grads[i]
                beta[used] = coef[k:k + len(used)]
            outcomes.append((beta, coef[:k], int(count), None, g))
    return outcomes


# --- public fitting API ----------------------------------------------------

def fit_unpenalized(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    loss: LossKind | None = None,
    config: FitConfig | None = None,
) -> "EstimatorResult | AdaptiveLassoPath":
    """Minimize the IPCW-weighted empirical loss over the coefficient vector.

    Composite quantile jointly fits its level intercepts and the shared
    slope; other families fit an intercept only when config.fit_intercept.

    dataset and weights may also be equal-length sequences (the groups of an
    aggregated fit): every group is then fitted on its own rows, all in
    lockstep stacks as a path's points are, whatever their size, and the
    groups' fits come back in order as an `AdaptiveLassoPath`, each its
    EstimatorResult or the error it raised.  (`fit_aggregated` passes groups
    too large to gain from a stack, `_alone`, one at a time.)
    """
    if config is None:
        config = FitConfig(loss=loss if loss is not None else LossKind(LossKind.MEDIAN))
    if loss is None:
        loss = config.loss
    rows, groups = _rows_of(dataset, weights)
    fits = _fit_groups(rows, loss, np.zeros((len(rows), rows[0][0].p)), config)
    return _raised(fits[0]) if groups is None else AdaptiveLassoPath(fits)


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
    sign-pattern Newton steps for expectile.  A point's coefficients,
    intercepts, objective and iterations are its single fit's bit for bit;
    its duality gap and KKT residual agree to rounding, as the products
    behind them round by the number of problems in the stack.  Errors of
    the data themselves (weights, beta_tilde) are raised either way.

    Each fit starts on a working set of columns: the _WORKING_SET (8) with
    the smallest penalties lam * omega_j, plus any unpenalized ones; the
    others are held at 0.  Each column left out is then checked on the
    exact optimality condition of its coordinate at 0, |x_j'g| <= lam_j,
    with g the LP vertex's duals or the expectile loss's derivative; a
    violator joins the set and the fit is solved again, until none is left.
    The result is the fit on every column, with the same support and
    objective up to rounding, and its certificates cover every column.

    dataset, weights and beta_tilde may also be equal-length sequences (the
    groups of an aggregated fit, without lams): each group is fitted at
    config.lam on its own rows with its own pilot, all in lockstep stacks
    whatever their size (as in `fit_unpenalized`), and the groups' fits come
    back in order as an `AdaptiveLassoPath`.  A group's fit is its single
    fit up to rounding.
    """
    single = lams is None
    lams = np.asarray([config.lam] if single else lams, dtype=float)
    if not np.all((lams >= 0.0) & (lams < np.inf)):
        raise ValueError("lam must be finite and >= 0")
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    rows, groups = _rows_of(dataset, weights)
    if groups is not None and not single:
        raise ValueError("a lambda path is fitted on one dataset")
    p = rows[0][0].p
    if beta_tilde.shape != ((p,) if groups is None else (groups, p)):
        raise DimensionMismatch("beta_tilde length must equal p")
    omega = adaptive_weights(beta_tilde, config.gamma)
    fits = _fit_groups(rows, config.loss, lams[:, None] * omega, config, beta_start=beta_tilde)
    return _raised(fits[0]) if single and groups is None else AdaptiveLassoPath(fits)


def _rows_of(dataset, weights):
    """(rows, groups): [`_group`], the checked rows of one dataset (groups
    None), or those of each of a sequence of datasets (groups its length).
    Every check is made here, before any fit; no active row is copied."""
    if isinstance(dataset, SurvivalDataset):
        return [_group(dataset, weights)], None
    if len(dataset) != len(weights):
        raise DimensionMismatch("one weight vector per dataset")
    if not len(dataset):
        raise ValueError("no datasets to fit")
    rows = [_group(d, wts) for d, wts in zip(dataset, weights)]
    if len({d.p for d, _, _ in rows}) > 1:
        raise DimensionMismatch("datasets disagree on p")
    return rows, len(rows)


def _fit_groups(rows, loss, lam_ws, config, beta_start=None) -> list:
    """`_fit_path` for each row of penalties lam_ws: all on the one
    `_group`'s active rows, or each on its own group's (rows[k], and
    beta_start[k] if given), the groups as one `_padded` stack."""
    if len(rows) == 1:  # a single group is its own rows, with no padding
        return _fit_path(*_active_rows(*rows[0]), loss, lam_ws, config, beta_start)
    return _fit_path(*_padded(rows), loss, lam_ws, config, beta_start)


def _alone(active, p) -> bool:
    """Whether `fit_aggregated` fits groups with these counts of active rows
    one at a time, each as its single fit, rather than as one stack: some
    group's design holds more than _OWN_STACK doubles."""
    return max(active) * p > _OWN_STACK


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
    CensLassoError it raised, on shared or own rows (`_solve_lp_family`):
    solved in lockstep stacks (`_solve_lp_family`, `_solve_expectile`), then
    certified as many fits at a time as a stack holds, on views of the rows.

    Each problem is fitted on a working set of its columns (`_working_sets`),
    the others at an infinite penalty, which holds them at 0.  A column j
    left out is then checked on the fit's exact optimality condition for it,
    |x_j'g| <= lam_j, where g is the LP vertex's duals summed over the levels
    or the expectile loss's derivative in the fitted values; one within
    rounding of lam_j counts as a violator.  Every violator joins its
    problem's working set, and only the problems that had one are solved
    again: on shared rows stacked with the problems that have the same
    working set, so a path point's fit is its single fit's bit for bit, its
    certificates up to rounding (Tibshirani et al. 2012, section 7).  A
    problem whose fit failed with columns left out is solved again on all
    of them.  The certificates cover all p
    columns, and on every row: a globbed fit (`_globbed`) passes g on the
    full rows to the check, and its objective, duality gap and KKT residual
    are those of the full rows.
    """
    kept = _working_sets(lam_ws)
    solved = [None] * len(lam_ws)
    todo = np.arange(len(lam_ws))
    col_max = None  # the largest |entry| of each design column, once a check needs it
    while todo.size:
        batches = {}
        for b in todo:  # on own rows each problem takes its own columns in one stack
            batches.setdefault(kept[b].tobytes() if x.ndim == 2 else b"", []).append(b)
        grown = []
        for batch in map(np.array, batches.values()):
            rows = (x, z, w) if x.ndim == 2 or len(batch) == len(lam_ws) else (
                x[batch], z[batch], w[batch])
            penalties = np.where(kept[batch], lam_ws[batch], np.inf)
            if loss.is_lp_family:
                outcomes = _solve_lp_family(*rows, loss, penalties, config.fit_intercept,
                                            config.tol, config.max_iter)
            else:
                start = beta_start if np.ndim(beta_start) < 2 else beta_start[batch]
                outcomes = _solve_expectile(*rows, loss, penalties, config, start)
            for b, outcome in zip(batch, outcomes):
                solved[b] = outcome
                if kept[b].all():
                    continue
                if isinstance(outcome, CensLassoError):
                    new = ~kept[b]
                else:
                    if col_max is None:
                        col_max = np.maximum(x.max(axis=-2), -x.min(axis=-2))
                    g = outcome[4]
                    new = _violators(g, x if x.ndim == 2 else x[b, :len(g)], lam_ws[b], kept[b],
                                     col_max if x.ndim == 2 else col_max[b])
                kept[b] |= new
                if new.any():
                    grown.append(b)
        todo = np.sort(np.array(grown, dtype=int))
    ok = [not isinstance(fit, CensLassoError) for fit in solved]
    if not any(ok):
        return solved
    # a failed fit is certified at 0 and its certificates dropped: every
    # chunk reads its rows in place, and each fit's certificates are those
    # it gets when no fit fails
    zero = [np.zeros_like(v) for v in solved[ok.index(True)][:2]]
    betas = np.array([fit[0] if good else zero[0] for fit, good in zip(solved, ok)])
    intercepts = np.array([fit[1] if good else zero[1] for fit, good in zip(solved, ok)])
    size = max(1, _STACK // x.shape[-2])
    for at in (slice(start, start + size) for start in range(0, len(solved), size)):
        certificates = _certificates(*_stack_of(x, z, w, at), loss, lam_ws[at], betas[at],
                                     intercepts[at])
        for k, objective, kkt in zip(range(len(solved))[at], *certificates):
            if ok[k]:
                solved[k] = _attempt(_certified, *solved[k][:4], float(objective), float(kkt))
    return solved


def _violators(g, x, lam_w, kept, col_max):
    """The columns j outside `kept` at which |x_j'g| reaches lam_j or comes
    within rounding of it, _SCREEN_SLACK of the bound max_i |x_ij| sum_i |g_i|
    on x_j'g, so that the check never decides on rounding."""
    slack = _SCREEN_SLACK * col_max * np.abs(g).sum()
    return ~kept & (np.abs(g @ x) > lam_w - slack)


def _working_sets(lam_ws):
    """Each problem's first working set, a row of a (B, p) mask: its
    unpenalized columns and the _WORKING_SET penalized ones with the
    smallest penalties, ties by index.  At an unpenalized pilot's optimum
    x_j'g = 0 for every column, so the pilot's dual point is feasible at
    every lambda, and from there Celer's priority (Massias, Gramfort &
    Salmon 2018), lam_j over the column's norm, orders the columns by
    lam_j: every point of a path starts from the same set, and a pilot
    keeps every column."""
    rank = np.empty(lam_ws.shape, dtype=int)
    np.put_along_axis(rank, np.argsort(lam_ws, axis=1, kind="stable"),
                      np.arange(lam_ws.shape[1]), axis=1)
    return rank < np.count_nonzero(lam_ws == 0.0, axis=1, keepdims=True) + _WORKING_SET


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

    On the expectile route this is the optimality condition itself.  On the
    LP route it is a necessary condition only: each coordinate's interval
    lets the kink rows take any slope, while one dual vector must serve
    every coordinate at once.  There a fit's certificate is the duality gap
    of its certified vertex; a fit missing a column can read 0 here.
    """
    x, z, w = _active_rows(*_group(dataset, weights))
    lam_w = lam * np.asarray(adaptive_weights_vec, dtype=float)
    intercepts = np.asarray(result.intercepts, dtype=float)
    return float(_certificates(x, z, w, loss, lam_w[None], result.beta[None],
                               intercepts[None])[1][0])


def _certificates(x, z, w, loss, lam_ws, betas, intercepts):
    """Per fit (a row of lam_ws, betas and intercepts, on the active rows):
    its penalized objective and its `kkt_residual`.

    The fits share the rows x (n, p), z and w, or each has its own, x
    (B, n, p), z and w (B, n), whose padding, with w = 0, adds nothing;
    either is read where it lies, with no copy of it.  Each fit's fitted
    values, loss sums and subdifferential sums are its own products, as in
    `objective_value`: with x per level, and with |x| only on that fit's
    own rows at the check loss's kink, gathered per level and padded with
    rows of its own where its interval is a point.
    """
    count, p = betas.shape
    levels = loss_levels(loss)
    fitted = np.matmul(x, betas[:, :, None])[:, :, 0]
    # x as a (count, n, p) view for either shape, indexed by fit on its first axis
    rows_of, fit = np.broadcast_to(x, (count,) + x.shape[-2:]), np.arange(count)[:, None]
    objectives = np.zeros(count)
    lo = np.zeros((count, p + len(levels)))
    hi = np.zeros((count, p + len(levels)))
    for k, level in enumerate(levels):
        shift = intercepts[:, k, None] if intercepts.shape[1] else 0.0
        resid = z - shift - fitted
        objectives += [float(wb @ values) for wb, values
                       in zip(np.broadcast_to(w, resid.shape), level.values(resid))]
        d_lo, d_hi = level.slopes(resid)
        # sum_i c_i [d_lo_i, d_hi_i] = c'mid -/+ |c|'half, and half is 0
        # off the check loss's kink
        mid, half = w * (d_lo + d_hi) / 2.0, w * (d_hi - d_lo) / 2.0
        # each fit's own kink rows in order, then rows where its half is 0,
        # sorted out of the rows at some fit's kink
        some = np.flatnonzero(half.any(axis=0))
        own = half[:, some]
        order = np.argsort(own == 0.0, axis=1, kind="stable")
        kink = some[order[:, :np.count_nonzero(own, axis=1).max()]]
        spread = np.matmul(half[fit, kink][:, None, :], np.abs(rows_of[fit, kink]))[:, 0]
        center = _times_x(mid, x)
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

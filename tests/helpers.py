"""Independent oracles shared by the test modules.

Everything here recomputes quantities by the most literal route available
(per-observation loops, exhaustive grids, quadrature) and never calls into
the solver code paths it is used to check.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from censlasso.data import SurvivalDataset
from censlasso.kaplan_meier import IpcwWeights


def naive_censoring_km(y, delta, t):
    """Product-limit value at t recomputed observation by observation.

    Ranks are assigned by time with events before censorings at ties; each
    censored observation of rank r with time <= t contributes
    (n - r) / (n - r + 1).
    """
    n = len(y)
    order = sorted(range(n), key=lambda i: (y[i], -delta[i]))
    prod = 1.0
    for rank, i in enumerate(order, start=1):
        if y[i] <= t and delta[i] == 0:
            prod *= (n - rank) / (n - rank + 1)
    return prod


def textbook_censoring_km(y, delta, t):
    """Classic d_j / n_j product over distinct censoring times (no-ties data)."""
    n = len(y)
    value = 1.0
    for tj in sorted({y[i] for i in range(n) if delta[i] == 0}):
        if tj > t:
            continue
        at_risk = sum(1 for i in range(n) if y[i] >= tj)
        d = sum(1 for i in range(n) if y[i] == tj and delta[i] == 0)
        value *= (at_risk - d) / at_risk
    return value


def naive_objective(dataset, weights, loss, lam, omega, beta, intercepts=()):
    """Penalized objective by plain Python loops."""
    import math

    total = 0.0
    intercepts = list(intercepts)
    for i in range(dataset.n):
        z = math.log(dataset.y[i])
        xb = sum(dataset.x[i, j] * beta[j] for j in range(dataset.p))
        w = weights.w[i]
        if loss.family == "composite_quantile":
            for tau, b in zip(loss.taus, intercepts):
                u = z - b - xb
                total += w * (u * (tau - (1 if u <= 0 else 0)))
        else:
            b = intercepts[0] if intercepts else 0.0
            u = z - b - xb
            if loss.family == "median":
                total += w * abs(u)
            elif loss.family == "quantile":
                total += w * (u * (loss.tau - (1 if u <= 0 else 0)))
            else:
                a = loss.tau if u >= 0 else 1.0 - loss.tau
                total += w * a * u * u
    penalty = lam * sum(omega[j] * abs(beta[j]) for j in range(len(beta)))
    return total + penalty


def check_objective_on_grid(x, z, w, tau, lam_w, lo=-4.0, hi=4.0,
                            coarse=0.1, fine=0.01, scale=1.0):
    """Exhaustive minimum of the penalized check-loss objective on a grid.

    Coarse scan over [lo, hi]^p, then a fine scan around the coarse argmin.
    Returns the smallest objective value seen.
    """
    p = x.shape[1]

    def batch_objective(grid_points):
        resid = z[None, :] - grid_points @ x.T
        loss = scale * (resid * (tau - (resid <= 0.0)))
        return loss @ w + np.abs(grid_points) @ lam_w

    def scan(axes):
        best_val = np.inf
        best_pt = None
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        for start in range(0, len(pts), 20000):
            chunk = pts[start:start + 20000]
            vals = batch_objective(chunk)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best_pt = chunk[k]
        return best_val, best_pt

    axes = [np.arange(lo, hi + coarse / 2, coarse)] * p
    val_c, pt_c = scan(axes)
    axes = [np.arange(c - coarse, c + coarse + fine / 2, fine) for c in pt_c]
    val_f, _ = scan(axes)
    return min(val_c, val_f)


def weighted_median_interval(values, weights):
    """All minimizers of sum w_i |v_i - b|, as a closed interval."""
    order = np.argsort(values)
    v = np.asarray(values, float)[order]
    w = np.asarray(weights, float)[order]
    half = w.sum() / 2.0
    cum = np.cumsum(w)
    k = int(np.searchsorted(cum, half))  # first cumulative weight >= half
    if np.isclose(cum[k], half) and k + 1 < len(v):
        return v[k], v[k + 1]
    return v[k], v[k]


def gumbel_density(x):
    return np.exp(-x - np.exp(-x))


def gumbel_expectile_index():
    """tau* with E[g_tau*(eps)] = 0 for the standard max-Gumbel, by quadrature."""
    neg, _ = quad(lambda x: x * gumbel_density(x), -40, 0)
    pos, _ = quad(lambda x: x * gumbel_density(x), 0, 60)
    return neg / (neg - pos)


def gumbel_censoring_rate(c1):
    """P(C < T) for T = exp(eps), C ~ U[0, c1], by quadrature."""
    lo = np.log(c1)
    tail, _ = quad(gumbel_density, lo, 60)
    body, _ = quad(lambda x: np.exp(x) * gumbel_density(x), -40, lo)
    return tail + body / c1


def gumbel_censoring_bound(target):
    """The c1 solving gumbel_censoring_rate(c1) = target."""
    return brentq(lambda c: gumbel_censoring_rate(c) - target, 1e-3, 1e4, xtol=1e-10)


def make_weights(w):
    w = np.asarray(w, dtype=float)
    return IpcwWeights(w=w, floor_used=1.0 / len(w))


def small_dataset(y, delta, x):
    return SurvivalDataset(np.asarray(y, float), np.asarray(delta, int),
                           np.asarray(x, float))


def check_loss_levels(loss):
    """(tau, scale) of each check-loss level: sum_k scale_k rho_tau_k(u)."""
    if loss.family == "median":
        return [(0.5, 2.0)]
    if loss.family == "quantile":
        return [(loss.tau, 1.0)]
    return [(float(t), 1.0) for t in loss.taus]


def clip_boxes(dataset, weights, loss):
    """2 reach_j for each column j: the pseudo-row box of a coordinate that
    a lockstep stack clips, reach_j = sum_i |x_ij| w_i sum_k scale_k
    max(tau_k, 1 - tau_k) over the rows with positive weight."""
    w = np.asarray(weights.w, dtype=float)
    keep = w > 0.0
    widest = w[keep] * sum(scale * max(tau, 1.0 - tau) for tau, scale in check_loss_levels(loss))
    return 2.0 * (np.abs(dataset.x[keep]).T @ widest)


def clipped_rows(lp, boxes):
    """Per problem of a stack and pseudo-row: whether its box is a clipped
    one, 2 reach_j for some column j (`boxes`, from `clip_boxes`)."""
    pseudo = lp.hi[:, lp.n_obs:]
    return np.isclose(pseudo[..., None], boxes, rtol=1e-12, atol=0.0).any(axis=-1)


def check_loss_primal_lp(x, z, w, levels, intercepts, lam_w):
    """The penalized weighted check-loss fit as HiGHS solves its primal LP.

    Minimizes sum_k sum_i scale_k w_i rho_tau_k(u_ki) + sum_j lam_w_j |beta_j|
    over u_ki = z_i - b_k - x_i'beta, splitting every residual, coefficient
    and intercept into nonnegative parts: u = u+ - u-, beta = beta+ - beta-,
    b = b+ - b- (one intercept per level when `intercepts`, none otherwise),
    with rho_tau(u) = tau u+ + (1 - tau) u-.  Dual simplex, so the solution
    is a vertex and a coefficient that is not basic is exactly 0.  Returns
    (beta, b, duals), the duals being the marginals of the equality rows
    (level-major, one per observation and level).
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n, p = x.shape
    L = len(levels)
    J = L if intercepts else 0
    design = sp.vstack([sp.csr_matrix(x)] * L)
    level_ones = sp.kron(sp.identity(L), np.ones((n, 1)))
    eye = sp.identity(L * n)
    blocks = [design, -design]
    if J:
        blocks += [level_ones, -level_ones]
    a_eq = sp.hstack(blocks + [eye, -eye], format="csc")
    cost = np.concatenate(
        [lam_w, lam_w, np.zeros(2 * J)]
        + [scale * tau * w for tau, scale in levels]
        + [scale * (1.0 - tau) * w for tau, scale in levels])
    res = linprog(cost, A_eq=a_eq, b_eq=np.tile(z, L), bounds=(0, None),
                  method="highs-ds")
    assert res.status == 0, res.message
    v = res.x
    beta = v[:p] - v[p:2 * p]
    b = v[2 * p:2 * p + J] - v[2 * p + J:2 * p + 2 * J]
    return beta, b, res.eqlin.marginals

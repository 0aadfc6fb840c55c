"""Correctness oracles written from the definitions, apart from the program.

Nothing here calls censlasso: the censoring curve, the IPCW weights and the
optimality conditions are recomputed from the loss definitions, so a check
fails when the program's answer is wrong, not when it merely changed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1

# a residual this close to 0 takes its whole subgradient interval
ZERO_RESIDUAL = 1e-7
# optimality residual allowed, as a share of the sum of the magnitudes of
# the terms that make up the coordinate's gradient
KKT_REL_TOL = 1e-6


def product_limit(y, delta):
    """Censoring survival curve over distinct censoring times.

    G(t) = prod over censoring times c <= t of (1 - d_c / R_c), where d_c
    counts censorings at c and R_c the observations still at risk: those
    followed beyond c plus those censored at c (events at c leave first).
    Returns (jump times, values) at the times where G drops.
    """
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta)
    ys = np.sort(y)
    times, counts = np.unique(y[delta == 0], return_counts=True)
    beyond = len(ys) - np.searchsorted(ys, times, side="right")
    at_risk = beyond + counts
    values = np.cumprod(1.0 - counts / at_risk)
    return times, values


def ipcw(y, delta, floor=None):
    """delta_i / max(G(y_i), floor); floor defaults to 1/n."""
    n = len(y)
    floor = 1.0 / n if floor is None else floor
    times, values = product_limit(y, delta)
    g = np.concatenate(([1.0], values))[np.searchsorted(times, y, side="right")]
    return np.asarray(delta, dtype=float) / np.maximum(g, floor)


class Weights:
    """Stand-in for the program's IpcwWeights, carrying weights from `ipcw`."""

    def __init__(self, w):
        self.w = w


def gumbel_expectile_index() -> float:
    """The tau whose tau-expectile of the standard (max) Gumbel law is 0.

    tau = E[eps^-] / (E[eps^-] + E[eps^+]).  With F(t) = exp(-exp(-t)),
    E[eps^-] = int_{-inf}^0 F(t) dt = E1(1) (substitute s = exp(-t)) and
    E[eps^+] = E[eps] + E[eps^-] = Euler's gamma + E1(1).
    """
    neg = float(exp1(1.0))
    return neg / (np.euler_gamma + 2.0 * neg)


def optimality_violation(x, z, w, family, tau, lam_w, beta) -> float:
    """Largest relative distance of 0 from a coordinate's subdifferential.

    The objective is sum_i w_i loss(z_i - x_i'beta) + sum_j lam_w_j |beta_j|
    with loss = |tau - 1{u<0}| u^2 (expectile), u (tau - 1{u<=0}) (quantile)
    or |u| (median).  Each coordinate's violation is divided by the sum of
    the magnitudes of its gradient terms, so the figure is scale-free.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lam_w = np.asarray(lam_w, dtype=float)
    keep = w > 0.0
    x, z, w = x[keep], np.asarray(z, dtype=float)[keep], w[keep]
    u = z - x @ beta
    if family == "expectile":
        slope = 2.0 * np.where(u >= 0.0, tau, 1.0 - tau) * u   # -d loss / d fit
        lo = hi = -(x.T @ (w * slope))
        scale = np.abs(x).T @ (w * np.abs(slope))
    else:
        if family == "median":
            tau, s = 0.5, 2.0
        else:
            s = 1.0
        zero = np.abs(u) <= ZERO_RESIDUAL
        psi = np.where(zero, 0.0, tau - (u < 0.0))
        base = -(x.T @ (s * w * psi))
        wx0 = s * w[zero, None] * x[zero]                       # each row's range
        lo = base + np.minimum(-wx0 * tau, -wx0 * (tau - 1.0)).sum(axis=0)
        hi = base + np.maximum(-wx0 * tau, -wx0 * (tau - 1.0)).sum(axis=0)
        scale = np.abs(x).T @ (s * w)
    nonzero = beta != 0.0
    shift = np.where(nonzero, lam_w * np.sign(beta), 0.0)
    slack = np.where(nonzero, 0.0, lam_w)
    lo = lo + shift - slack
    hi = hi + shift + slack
    violation = np.maximum(0.0, np.maximum(lo, -hi))
    return float(np.max(violation / scale))

"""Loss families and empirical asymmetry-index estimators.

Median uses the plain absolute loss; quantile regression uses the check
function rho_tau(u) = u * (tau - 1{u <= 0}); the expectile family uses the
asymmetric squared loss |tau - 1{u < 0}| u^2 whose tau = 1/2 case is least
squares.  Composite quantile fits J check losses at tau_j = j / (1 + J) with
level-specific intercepts and a shared slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample


@dataclass(frozen=True)
class LossKind:
    """A loss family together with its asymmetry index.

    family is one of "median", "quantile", "composite_quantile", "expectile",
    "least_squares".  Least squares is stored as expectile with tau = 1/2.
    """

    family: str
    tau: float | None = None
    n_levels: int | None = None  # composite quantile only

    MEDIAN = "median"
    QUANTILE = "quantile"
    COMPOSITE_QUANTILE = "composite_quantile"
    EXPECTILE = "expectile"

    def __post_init__(self):
        if self.family == "least_squares":
            object.__setattr__(self, "family", self.EXPECTILE)
            object.__setattr__(self, "tau", 0.5)
        if self.family not in (
            self.MEDIAN,
            self.QUANTILE,
            self.COMPOSITE_QUANTILE,
            self.EXPECTILE,
        ):
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family in (self.QUANTILE, self.EXPECTILE):
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("tau must lie strictly inside (0, 1)")
            if self.n_levels is not None:
                raise ValueError("n_levels only applies to composite quantile")
        elif self.family == self.COMPOSITE_QUANTILE:
            if self.n_levels is None or self.n_levels < 1:
                raise ValueError("composite quantile needs n_levels >= 1")
            if self.tau is not None:
                raise ValueError("composite quantile derives its own levels")
        elif self.tau is not None or self.n_levels is not None:
            raise ValueError("median takes no tau or n_levels")

    @property
    def taus(self) -> np.ndarray:
        """Quantile levels tau_j = j / (1 + J) of the composite loss."""
        if self.family != self.COMPOSITE_QUANTILE:
            raise ValueError("taus is defined for composite quantile only")
        j = np.arange(1, self.n_levels + 1, dtype=float)
        return j / (1.0 + self.n_levels)

    @property
    def is_lp_family(self) -> bool:
        """True for the piecewise-linear losses solved by linear programming."""
        return self.family in (self.MEDIAN, self.QUANTILE, self.COMPOSITE_QUANTILE)

    def label(self) -> str:
        if self.family == self.EXPECTILE and self.tau == 0.5:
            return "least_squares"
        if self.family in (self.QUANTILE, self.EXPECTILE):
            return f"{self.family}({self.tau:g})"
        if self.family == self.COMPOSITE_QUANTILE:
            return f"{self.family}(J={self.n_levels})"
        return self.family


def check_loss(tau: float, u) -> np.ndarray | float:
    """Check function u * (tau - 1{u <= 0}); nonnegative, zero iff u = 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u <= 0.0))
    return float(out) if out.ndim == 0 else out


def expectile_loss(tau: float, u) -> np.ndarray | float:
    """Asymmetric squared loss |tau - 1{u < 0}| u^2."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=float)
    out = np.abs(tau - (u < 0.0)) * u * u
    return float(out) if out.ndim == 0 else out


def expectile_grad(tau: float, u) -> np.ndarray | float:
    """Derivative in the location parameter: -2 tau u 1{u>=0} - 2(1-tau) u 1{u<0}."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 0.0, -2.0 * tau * u, -2.0 * (1.0 - tau) * u)
    return float(out) if out.ndim == 0 else out


def pointwise_loss(kind: LossKind, u) -> np.ndarray:
    """Per-residual loss for the non-composite families."""
    if kind.family == LossKind.MEDIAN:
        return np.abs(np.asarray(u, dtype=float))
    if kind.family == LossKind.QUANTILE:
        return np.asarray(check_loss(kind.tau, u))
    if kind.family == LossKind.EXPECTILE:
        return np.asarray(expectile_loss(kind.tau, u))
    raise ValueError("composite quantile loss needs per-level residuals")


def estimate_expectile_index(residuals) -> float:
    """Empirical expectile index: ratio of the negative-part mean to the
    spread between negative- and positive-part means.

    Consistent for the tau solving E[g_tau(eps)] = 0; needs both signs present.
    """
    r = np.asarray(residuals, dtype=float)
    neg = r[r < 0.0].sum()
    pos = r[r > 0.0].sum()
    if not (neg < 0.0 and pos > 0.0):
        raise DegenerateSample("residuals must contain both signs")
    return float(neg / (neg - pos))


def estimate_quantile_index(residuals) -> float:
    """Empirical CDF of the residuals at zero."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residuals must be non-empty")
    return float(np.mean(r < 0.0))

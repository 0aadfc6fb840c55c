"""Product-limit estimation of the censoring survival curve and IPCW weights.

The estimand is the survival function of the *censoring* variable, so the
product-limit jumps sit at censoring times: sorting observations by time with
events ordered before censorings at ties, the observation of rank r
contributes the factor ((n - r) / (n - r + 1)) ** (1 - delta).  Dividing each
event's loss term by the curve value at its follow-up time yields
inverse-probability-of-censoring weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, write_rows
from .errors import DegenerateWeights


@dataclass(frozen=True, eq=False)
class CensoringSurvivalCurve:
    """Right-continuous step estimate of the censoring survival function."""

    jump_times: np.ndarray
    values: np.ndarray
    n_fit: int

    def __post_init__(self):
        self.jump_times.setflags(write=False)
        self.values.setflags(write=False)

    def evaluate(self, t) -> np.ndarray | float:
        """Curve value at time(s) t; 1 before the first jump, right-continuous."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate(([1.0], self.values))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def to_csv(self, path) -> None:
        """Two-column CSV (time, survival) including the origin."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,survival\n")
            fh.write("0,1\n")
            write_rows(fh, "%.17g,%.17g\n", self.jump_times, self.values)


@dataclass(frozen=True, eq=False)
class IpcwWeights:
    """Per-observation weights delta_i / max(G(y_i), floor)."""

    w: np.ndarray
    floor_used: float

    def __post_init__(self):
        self.w.setflags(write=False)


def fit_censoring_km(dataset: SurvivalDataset) -> CensoringSurvivalCurve:
    """Kaplan-Meier estimate of the censoring survival function.

    Censorings play the role of deaths; at tied times events are ranked
    before censorings, the standard product-limit tie convention.
    """
    n = dataset.n
    # events (delta=1) first at equal times -> sort key (y, -delta)
    order = np.lexsort((-dataset.delta, dataset.y))
    y = dataset.y[order]
    delta = dataset.delta[order]
    ranks = np.arange(1, n + 1, dtype=float)
    factors = np.where(delta == 0, (n - ranks) / (n - ranks + 1.0), 1.0)
    levels = np.cumprod(factors)
    # keep the last level at each distinct time, then only actual drops
    last = np.ones(n, dtype=bool)
    last[:-1] = y[1:] != y[:-1]
    times = y[last]
    values = levels[last]
    prev = np.concatenate(([1.0], values[:-1]))
    changed = values != prev
    return CensoringSurvivalCurve(
        jump_times=np.ascontiguousarray(times[changed]),
        values=np.ascontiguousarray(values[changed]),
        n_fit=n,
    )


def ipcw_weights(
    dataset: SurvivalDataset,
    curve: CensoringSurvivalCurve,
    floor: float | None = None,
) -> IpcwWeights:
    """Inverse-probability-of-censoring weights, floored away from division by 0.

    floor defaults to 1 / curve.n_fit; only event weights are affected by it.
    """
    if floor is None:
        floor = 1.0 / curve.n_fit
    if not floor > 0.0:
        raise ValueError("floor must be positive")
    g = np.asarray(curve.evaluate(dataset.y), dtype=float)
    w = dataset.delta / np.maximum(g, floor)
    if not np.any(w > 0.0):
        raise DegenerateWeights("all IPCW weights are zero (no observed events)")
    return IpcwWeights(w=w, floor_used=float(floor))

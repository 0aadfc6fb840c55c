"""Tuning-parameter grid and BIC-type selection criteria.

The grid is lambda_j = n^(1/2 - 1/(10 j)), j = 1..20: every value grows
without bound in n yet stays o(sqrt(n)).  The score of a penalized fit is its
weighted empirical loss normalized by the unpenalized loss, plus a support
penalty |A(lambda)| * log(m) / m with m either the sample size or the event
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import CensLassoError, SolverError, ZeroNormalizer
from .kaplan_meier import IpcwWeights
from .losses import LossKind
from .solvers import (
    EstimatorResult,
    FitConfig,
    fit_adaptive_lasso,
    fit_unpenalized,
    objective_value,
)

PENALTY_MODES = ("log_n_over_n", "log_nu_over_nu")
GRID_SIZE = 20


@dataclass(frozen=True)
class BicConfig:
    """Support-penalty variant: log(n)/n or log(events)/events."""

    penalty_mode: str = "log_n_over_n"

    def __post_init__(self):
        if self.penalty_mode not in PENALTY_MODES:
            raise ValueError(f"unknown penalty mode {self.penalty_mode!r}")


@dataclass(frozen=True)
class BicPathEntry:
    lam: float
    score: float | None
    support_size: int | None
    result: EstimatorResult | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass(frozen=True)
class BicPath:
    entries: tuple[BicPathEntry, ...]
    best_index: int

    @property
    def best(self) -> BicPathEntry:
        return self.entries[self.best_index]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("lambda,score,support_size\n")
            for e in self.entries:
                score = "" if e.score is None else f"{e.score:.17g}"
                size = "" if e.support_size is None else str(e.support_size)
                fh.write(f"{e.lam:.17g},{score},{size}\n")


def lambda_grid(n: int) -> np.ndarray:
    """The 20-point grid n^(1/2 - 1/(10 j)), j = 1..20, increasing in j."""
    if n < 2:
        raise ValueError("n must be at least 2")
    j = np.arange(1, GRID_SIZE + 1, dtype=float)
    return n ** (0.5 - 1.0 / (10.0 * j))


def fixed_lambda(n: int, j: int = 1) -> float:
    """Single grid value n^(1/2 - 1/(10 j))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= j <= GRID_SIZE:
        raise ValueError(f"j must lie in 1..{GRID_SIZE}")
    return float(n ** (0.5 - 1.0 / (10.0 * j)))


def _penalty_count(dataset: SurvivalDataset, mode: str) -> int:
    return dataset.n if mode == "log_n_over_n" else dataset.n_events


def _loss_at(dataset, weights, loss: LossKind, fit: EstimatorResult) -> float:
    return objective_value(
        dataset, weights, loss, 0.0, np.zeros(dataset.p), fit.beta, fit.intercepts
    )


def bic_score(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    result: EstimatorResult,
    unpenalized: EstimatorResult,
    loss: LossKind,
    config: BicConfig,
    normalizer: float | None = None,
) -> float:
    """Normalized-loss BIC: loss(result)/loss(unpenalized) + |support|*log(m)/m.

    normalizer is loss(unpenalized) when the caller has it already, as
    `select_lambda` does: it computes it once per path.
    """
    if normalizer is None:
        normalizer = _loss_at(dataset, weights, loss, unpenalized)
    if normalizer == 0.0:
        raise ZeroNormalizer("unpenalized loss is zero; BIC ratio undefined")
    m = _penalty_count(dataset, config.penalty_mode)
    numer = _loss_at(dataset, weights, loss, result)
    return numer / normalizer + len(result.support) * math.log(m) / m


def select_lambda(
    dataset: SurvivalDataset,
    weights: IpcwWeights,
    loss: LossKind,
    grid,
    config: BicConfig,
    fit_config: FitConfig | None = None,
) -> BicPath:
    """Fit the pilot once, then one adaptive-LASSO fit per grid value, all
    as one lockstep path (`fit_adaptive_lasso` with the grid as lams).

    Grid points whose fit fails (a solver error, or a fit that did not
    converge) are recorded with their error and skipped; ties in the score
    resolve to the smallest lambda.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if fit_config is None:
        fit_config = FitConfig(loss=loss)
    pilot = fit_unpenalized(dataset, weights, loss, fit_config)
    normalizer = _loss_at(dataset, weights, loss, pilot)
    entries = []
    fits = fit_adaptive_lasso(
        dataset, weights, fit_config.replace(loss=loss), pilot.beta, grid
    )
    for lam, fit in zip(grid, fits):
        try:
            if isinstance(fit, CensLassoError):
                raise fit
            score = bic_score(dataset, weights, fit, pilot, loss, config, normalizer)
            entries.append(BicPathEntry(lam, score, len(fit.support), fit))
        except CensLassoError as exc:  # recorded and skipped
            entries.append(BicPathEntry(lam, None, None, None, error=str(exc)))
    scores = [e.score for e in entries]
    if all(s is None for s in scores):
        raise SolverError("every grid point failed; no BIC path")
    best_index = min(
        (i for i, s in enumerate(scores) if s is not None), key=lambda i: scores[i]
    )
    return BicPath(entries=tuple(entries), best_index=best_index)


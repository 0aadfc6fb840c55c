"""Interleaved group splitting, support voting, and the aggregated estimator.

Observations are dealt into K groups round-robin (group k takes indices
k, K+k, 2K+k, ...) so each group sees the full time range of the survival
curve.  Each group gets its own pilot and adaptive-LASSO fit; a coordinate
enters the voted support when at least w groups select it, and the aggregated
coefficient on the voted support is the plain average of the group
coefficients there (zeros included).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import DimensionMismatch, InvalidK
from .kaplan_meier import CensoringSurvivalCurve, fit_censoring_km, ipcw_weights
from .solvers import EstimatorResult, FitConfig, fit_adaptive_lasso, fit_unpenalized
from .tuning import BicConfig, lambda_grid, select_lambda

KM_SCOPES = ("per_group", "global")


@dataclass(frozen=True)
class AggregationPlan:
    """How to split, tune, and vote.

    w may be an integer threshold or the rule "sqrt_K" for floor(sqrt(K)).
    per_group_tuning switches between a per-group BIC scan and the shared
    penalty level carried by the fit configuration.  km_scope picks whether
    each group estimates its own censoring curve or reuses a full-data one.
    """

    K: int
    w: int | str = "sqrt_K"
    per_group_tuning: bool = False
    km_scope: str = "per_group"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.km_scope not in KM_SCOPES:
            raise ValueError(f"unknown km_scope {self.km_scope!r}")
        if isinstance(self.w, str):
            if self.w != "sqrt_K":
                raise ValueError(f"unknown vote rule {self.w!r}")
        else:
            if not 1 <= int(self.w) <= self.K:
                raise ValueError("w must satisfy 1 <= w <= K")

    @property
    def resolved_w(self) -> int:
        if isinstance(self.w, str):
            return max(1, int(math.isqrt(self.K)))
        return int(self.w)

    def label(self) -> str:
        return f"K={self.K},w={self.resolved_w}"


@dataclass(frozen=True, eq=False)
class GroupAssignment:
    """The K interleaved index groups; trailing remainder observations dropped."""

    groups: tuple[np.ndarray, ...]
    n_used: int
    n_dropped: int

    def __post_init__(self):
        for g in self.groups:
            g.setflags(write=False)


@dataclass(frozen=True, eq=False)
class AggregatedResult:
    voted_support: frozenset[int]
    beta_check: np.ndarray
    group_results: tuple[EstimatorResult, ...]
    vote_counts: np.ndarray
    group_lambdas: tuple[float, ...]

    def __post_init__(self):
        self.beta_check.setflags(write=False)
        self.vote_counts.setflags(write=False)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.flatnonzero(self.beta_check))

    def to_dict(self) -> dict:
        return {
            "beta_check": [float(b) for b in self.beta_check],
            "voted_support": sorted(self.voted_support),
            "vote_counts": [int(c) for c in self.vote_counts],
            "group_supports": [sorted(r.support) for r in self.group_results],
            "group_lambdas": [float(l) for l in self.group_lambdas],
        }


def interleaved_split(n: int, K: int) -> GroupAssignment:
    """Round-robin groups {k, K+k, 2K+k, ...} (0-based); remainder dropped."""
    if K < 1:
        raise InvalidK("K must be >= 1")
    if K > n:
        raise InvalidK(f"K={K} exceeds the number of observations n={n}")
    n_used = K * (n // K)
    if n_used < n:
        warnings.warn(
            f"dropping the trailing {n - n_used} of {n} observations so "
            f"that K={K} groups have equal size",
            stacklevel=2,
        )
    groups = tuple(np.arange(k, n_used, K, dtype=np.intp) for k in range(K))
    return GroupAssignment(groups=groups, n_used=n_used, n_dropped=n - n_used)


def vote_support(vote_counts, w: int, K: int) -> frozenset[int]:
    """Coordinates selected by at least w of the K groups.

    vote_counts[j] is the number of group supports that contain j.
    """
    if not 1 <= w <= K:
        raise ValueError("w must satisfy 1 <= w <= K")
    return frozenset(int(j) for j in np.flatnonzero(np.asarray(vote_counts) >= w))


def aggregate(group_results, voted_support, K: int) -> np.ndarray:
    """Mean of the group coefficients on the voted support, zero elsewhere."""
    results = list(group_results)
    if len(results) != K:
        raise DimensionMismatch(f"expected {K} group results, got {len(results)}")
    dims = {len(r.beta) for r in results}
    if len(dims) != 1:
        raise DimensionMismatch("group results disagree on p")
    p = dims.pop()
    if any(j < 0 or j >= p for j in voted_support):
        raise DimensionMismatch("voted support indices out of range")
    beta_check = np.zeros(p)
    if voted_support:
        idx = np.fromiter(sorted(voted_support), dtype=np.intp)
        stacked = np.stack([r.beta for r in results])
        beta_check[idx] = stacked[:, idx].mean(axis=0)
    return beta_check


def fit_aggregated(
    dataset: SurvivalDataset,
    plan: AggregationPlan,
    config: FitConfig,
    bic_config: BicConfig | None = None,
    n_jobs: int = 1,
) -> AggregatedResult:
    """Split, fit each group (pilot then adaptive LASSO), vote, aggregate.

    With per_group_tuning each group scans its own BIC grid; otherwise every
    group uses config.lam.  A failing group, one whose fit did not converge
    included, aborts the whole fit.  Group fits
    are independent and may run on a thread pool; the reduction is ordered by
    group index, so the result does not depend on completion order.
    """
    assignment = interleaved_split(dataset.n, plan.K)
    if plan.per_group_tuning and bic_config is None:
        bic_config = BicConfig()
    global_curve: CensoringSurvivalCurve | None = None
    if plan.km_scope == "global":
        used = (
            dataset
            if assignment.n_dropped == 0
            else dataset.subset(np.arange(assignment.n_used))
        )
        global_curve = fit_censoring_km(used)

    def fit_group(k: int) -> tuple[EstimatorResult, float]:
        # one group is the whole dataset, which is immutable: no copy
        sub = dataset if plan.K == 1 else dataset.subset(assignment.groups[k])
        curve = global_curve if global_curve is not None else fit_censoring_km(sub)
        weights = ipcw_weights(sub, curve)
        if plan.per_group_tuning:
            path = select_lambda(
                sub, weights, config.loss, lambda_grid(sub.n), bic_config,
                fit_config=config,
            )
            return path.best.result, path.best.lam
        pilot = fit_unpenalized(sub, weights, config.loss, config.replace(lam=0.0))
        result = fit_adaptive_lasso(sub, weights, config, pilot.beta)
        return result, config.lam

    if n_jobs > 1 and plan.K > 1:
        with ThreadPoolExecutor(max_workers=min(n_jobs, plan.K)) as pool:
            fitted = list(pool.map(fit_group, range(plan.K)))
    else:
        fitted = [fit_group(k) for k in range(plan.K)]

    results = tuple(r for r, _ in fitted)
    lambdas = tuple(l for _, l in fitted)
    vote_counts = np.zeros(dataset.p, dtype=np.int64)
    for r in results:
        vote_counts[r.beta != 0.0] += 1
    voted = vote_support(vote_counts, plan.resolved_w, plan.K)
    beta_check = aggregate(results, voted, plan.K)
    return AggregatedResult(
        voted_support=voted,
        beta_check=beta_check,
        group_results=results,
        vote_counts=vote_counts,
        group_lambdas=lambdas,
    )

"""Interleaved group splitting, support voting, and the aggregated estimator.

Observations are dealt into K groups round-robin (group k takes indices
k, K+k, 2K+k, ...) so each group sees the full time range of the survival
curve.  Each group gets its own pilot and adaptive-LASSO fit; a coordinate
enters the voted support when at least w groups select it, and the aggregated
coefficient on the voted support is the plain average of the group
coefficients there (zeros included).

`fit_aggregated` is the one place that schedules the group fits.  It plans
them as blocks: all K groups in one block when they run as lockstep stacks,
one block per group when some group is too large to gain from a stack
(`solvers._alone`).  One task per block builds its groups' rows and IPCW
weights and fits them; the tasks run in the calling process, or on a pool
of forked workers (`_mapped`).
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
# Unused here since no group runs on a thread of its own; it stays bound
# because the traced benchmark run (perfbench/spans.py) replaces it.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import SurvivalDataset
from .errors import CensLassoError, DimensionMismatch, InvalidK
from .kaplan_meier import CensoringSurvivalCurve, fit_censoring_km, ipcw_weights
from .solvers import EstimatorResult, FitConfig, _alone, fit_adaptive_lasso, fit_unpenalized
from .tuning import BicConfig, lambda_grid, select_lambda

KM_SCOPES = ("per_group", "global")


@dataclass(frozen=True)
class AggregationPlan:
    """How to split and vote.

    w may be an integer threshold or the rule "sqrt_K" for floor(sqrt(K)).
    km_scope picks whether each group estimates its own censoring curve or
    reuses a full-data one.  How each group's penalty level is chosen is not
    part of the plan: `fit_aggregated` tunes it when given a `BicConfig`.
    """

    K: int
    w: int | str = "sqrt_K"
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

    The penalty rule is the bic_config: given one, each group scans its own
    BIC grid under it and config.lam is not used.  Given None, every group
    uses the fixed level config.lam.  A failing group, one whose fit did not
    converge included, aborts the whole fit with its own error (the first
    in group order, pilots before penalized fits).

    The groups are fitted in blocks, a task each that builds its groups'
    rows and IPCW weights just before fitting them: all K groups in one
    block, run as lockstep stacks, unless some group is too large to gain
    from one (`_alone`), then one block per group, each fitted as its single
    fit.  With n_jobs > 1 and several blocks the tasks run on up to n_jobs
    forked workers (`_mapped`), each group's fit the one it gets in the
    calling process.
    """
    assignment = interleaved_split(dataset.n, plan.K)
    global_curve: CensoringSurvivalCurve | None = None
    if plan.km_scope == "global":
        used = (
            dataset
            if assignment.n_dropped == 0
            else dataset.subset(np.arange(assignment.n_used))
        )
        global_curve = fit_censoring_km(used)

    # an IPCW weight is positive exactly on an event: the events are the
    # active rows that decide whether the groups run one at a time
    events = [np.count_nonzero(dataset.delta[g]) for g in assignment.groups]
    ks = range(plan.K)
    blocks = [[k] for k in ks] if _alone(events, dataset.p) else [list(ks)]
    task = partial(_block_fits, dataset, assignment.groups, global_curve, config, bic_config)
    parts = _mapped(task, blocks, min(n_jobs, len(blocks)))
    pilots, results, lambdas = (tuple(x for part in parts for x in part[i]) for i in range(3))
    for fit in pilots + results:  # the first error in group order, pilots first
        if isinstance(fit, CensLassoError):
            raise fit

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


def _block_fits(dataset, groups, global_curve, config, bic_config, block):
    """`_group_fits` of the groups `block` (indices into groups), on the
    full-data curve or each group's own."""
    # one group is the whole dataset, which is immutable: no copy
    subsets = [dataset] if len(groups) == 1 else [dataset.subset(groups[k]) for k in block]
    weights = [ipcw_weights(sub, global_curve if global_curve is not None
                            else fit_censoring_km(sub)) for sub in subsets]
    return _group_fits(subsets, weights, config, bic_config)


def _group_fits(subsets, weights, config, bic_config):
    """(pilots, fits, lambdas) of the groups in order: under bic_config each
    group's BIC minimizer (no pilots), else the fixed-lambda pilots and,
    unless a pilot failed, the penalized fits.  A pilot or fit that failed
    is its error; an error of select_lambda is raised."""
    if bic_config is not None:
        best = [select_lambda(sub, w, config.loss, lambda_grid(sub.n), bic_config,
                              fit_config=config).best for sub, w in zip(subsets, weights)]
        return (), tuple(b.result for b in best), tuple(b.lam for b in best)
    pilots = tuple(fit_unpenalized(subsets, weights, config.loss, config))
    if any(isinstance(pilot, CensLassoError) for pilot in pilots):
        return pilots, (), ()
    fits = tuple(fit_adaptive_lasso(subsets, weights, config, [pilot.beta for pilot in pilots]))
    return pilots, fits, (config.lam,) * len(subsets)


# the task that a forked worker of `_mapped` runs, set as it starts
_TASK = None

# OpenBLAS's own setters of its thread count, one per naming of its builds
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _blas_pins() -> list:
    """The thread-count setters of the OpenBLAS libraries loaded in this
    process, found in /proc/self/maps, or [] where this process cannot fork
    or they cannot be found.  A forked worker pins them to one thread: the
    libraries keep their parent's thread count in a worker, and workers that
    each spin as many threads as there are cores measured slower than
    serial (median K = 25 at n = 1e5 on 2 cores: 0.61-0.64 s serially,
    1.9-8.1 s on 2 workers, against 0.44-0.50 s pinned)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    pins = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        pins.extend(getattr(lib, name) for name in _BLAS_SETTERS if hasattr(lib, name))
    return pins


def _started(pins, task):
    """A worker's start: its OpenBLAS runs on one thread, and it keeps the
    task it runs, inherited through the fork rather than pickled."""
    global _TASK
    _TASK = task
    for pin in pins:
        pin(1)


def _run_task(block):
    return _TASK(block)


def _mapped(task, blocks, workers) -> list:
    """[task(block) for block in blocks], in order.  With more than one
    worker, and where this process forks and its OpenBLAS thread setters are
    found (`_blas_pins`), on a pool of that many forked workers, each pinned
    to one OpenBLAS thread; else with the builtin map in this process."""
    pins = _blas_pins() if workers > 1 else []
    if not pins:
        return list(map(task, blocks))
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_started, initargs=(pins, task)) as pool:
        return list(pool.map(_run_task, blocks))


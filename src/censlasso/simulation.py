"""Monte Carlo harness: selection metrics, bias, normality checks, timings.

A study replays M independent replications of one data design, fits each
requested method under each aggregation plan (optionally also on the full
data), and accumulates false-zero / false-non-zero percentages, the L1 bias
on the active set, standardized deviations sqrt(n)(beta_j - beta0_j) for
normality checks, BIC-minimizer histograms and wall-clock timings.
Replication seeds are pure functions of (master_seed, replication index), so
results do not depend on execution order or worker count.  The timing
benchmark is the same study's replication 0, run through the same
generate-and-fit loop: one dataset, timed once, then each fit timed in
turn, an aggregated fit's groups on one worker per CPU where they run one
at a time.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import AggregationPlan, fit_aggregated
from .data import GenerationSpec, calibrate_censoring_bound, generate_with_latents
from .errors import (
    CensLassoError,
    ConfigError,
    DegenerateSample,
    EmptyActiveSet,
    EstimationError,
    FullActiveSet,
    TooFewSamples,
)
from .losses import LossKind, estimate_expectile_index, estimate_quantile_index
from .solvers import FitConfig
from .tuning import BicConfig, GRID_SIZE, fixed_lambda, lambda_grid

# These run inside fit_aggregated.  They stay bound here because the traced
# benchmark run (perfbench/spans.py) wraps them under this module's name.
from .kaplan_meier import fit_censoring_km, ipcw_weights  # noqa: F401
from .solvers import fit_adaptive_lasso, fit_unpenalized  # noqa: F401
from .tuning import select_lambda  # noqa: F401

FULL_DATA_LABEL = "full"


@dataclass(frozen=True)
class MethodSpec:
    """A loss family plus how to obtain its asymmetry index.

    tau=None asks the harness to estimate the index from each replication's
    latent errors (the expectile index from the negative/positive part means,
    the quantile index as the empirical CDF at zero).
    """

    family: str
    tau: float | None = None
    n_levels: int = 10

    def __post_init__(self):
        valid = ("expectile", "median", "quantile", "composite_quantile", "least_squares")
        if self.family not in valid:
            raise ValueError(f"unknown method family {self.family!r}")

    def resolve(self, errors: np.ndarray) -> LossKind:
        if self.family == "median":
            return LossKind(LossKind.MEDIAN)
        if self.family == "least_squares":
            return LossKind("least_squares")
        if self.family == "composite_quantile":
            return LossKind(LossKind.COMPOSITE_QUANTILE, n_levels=self.n_levels)
        if self.tau is not None:
            return LossKind(self.family, tau=self.tau)
        if self.family == "expectile":
            return LossKind(LossKind.EXPECTILE, tau=estimate_expectile_index(errors))
        return LossKind(LossKind.QUANTILE, tau=estimate_quantile_index(errors))

    def label(self) -> str:
        if self.tau is not None:
            return f"{self.family}({self.tau:g})"
        return self.family


@dataclass(frozen=True)
class LambdaRule:
    """fixed: lambda = m^(1/2 - 1/(10 j)) at each fit's own sample size m;
    bic_grid: scan the 20-point grid per fit and keep the BIC minimizer."""

    kind: str
    j: int = 1

    FIXED = "fixed"
    BIC_GRID = "bic_grid"

    def __post_init__(self):
        if self.kind not in (self.FIXED, self.BIC_GRID):
            raise ValueError(f"unknown lambda rule {self.kind!r}")
        if self.kind == self.FIXED and not 1 <= self.j <= GRID_SIZE:
            raise ValueError(f"fixed-rule j must lie in 1..{GRID_SIZE}")


@dataclass(frozen=True)
class SimulationSpec:
    M: int
    generation: GenerationSpec
    methods: tuple[MethodSpec, ...]
    plans: tuple[AggregationPlan, ...]
    lambda_rule: LambdaRule = LambdaRule(LambdaRule.FIXED, 1)
    master_seed: int = 0
    compare_full_data: bool = False
    penalty_mode: str = BicConfig.penalty_mode
    gamma: float = FitConfig.gamma
    tol: float = FitConfig.tol
    max_iter: int = FitConfig.max_iter

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not self.plans:
            raise ValueError("need at least one aggregation plan")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "plans", tuple(self.plans))
        if not self.methods:
            raise ConfigError("need at least one method")
        # the settings are checked by the types that use them, before any fit
        BicConfig(penalty_mode=self.penalty_mode)
        _fit_config(self, LossKind(LossKind.MEDIAN), 0.0)
        # results are keyed by label: a repeated one would be fitted twice
        # and reported as two identical entries
        for kind, items in (("method", self.methods), ("plan", self.plans)):
            labels = [item.label() for item in items]
            repeated = next((label for label in labels if labels.count(label) > 1), None)
            if repeated is not None:
                raise ConfigError(f"the study lists {kind} {repeated} more than once")


@dataclass
class MethodPlanReport:
    method: str
    plan: str
    replications_used: int
    false_zero_pct: float
    false_nonzero_pct: float
    l1_bias_active: float
    mean_fit_seconds: float
    deviations: dict[int, list[float]]
    normality: dict[int, dict]
    bic_minimizer_counts: list[int] | None

    def to_dict(self) -> dict:
        """The entry without its timing, which `timings.csv` holds."""
        return {
            "method": self.method,
            "plan": self.plan,
            "replications_used": self.replications_used,
            "false_zero_pct": self.false_zero_pct,
            "false_nonzero_pct": self.false_nonzero_pct,
            "l1_bias_active": self.l1_bias_active,
            "deviations": {str(j): v for j, v in self.deviations.items()},
            "normality": {str(j): v for j, v in self.normality.items()},
            "bic_minimizer_counts": self.bic_minimizer_counts,
        }


@dataclass
class SimulationReport:
    entries: list[MethodPlanReport]
    failed_replications: list[dict]
    active_set: list[int]
    n: int
    p: int

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "p": self.p,
            "active_set": self.active_set,
            "failed_replications": self.failed_replications,
            "entries": [e.to_dict() for e in self.entries],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def entry(self, method: str, plan: str) -> MethodPlanReport:
        for e in self.entries:
            if e.method == method and e.plan == plan:
                return e
        raise KeyError(f"no entry for method={method!r} plan={plan!r}")

    def write_csv_tables(self, directory) -> list[str]:
        """Flat CSV exports: selection metrics, timings, deviations, normality,
        BIC minimizers.  A failed write removes the tables already written."""
        written = []

        def _open(name):
            path = os.path.join(directory, name)
            fh = open(path, "w", encoding="utf-8", newline="\n")
            written.append(path)
            return fh

        try:
            with _open("selection_metrics.csv") as fh:
                fh.write(
                    "method,plan,replications_used,false_zero_pct,"
                    "false_nonzero_pct,l1_bias_active\n"
                )
                for e in self.entries:
                    fh.write(
                        f"{e.method},{e.plan},{e.replications_used},"
                        f"{e.false_zero_pct:.17g},{e.false_nonzero_pct:.17g},"
                        f"{e.l1_bias_active:.17g}\n"
                    )
            # wall-clock means live in their own file so every other export is
            # a deterministic function of the simulation spec
            with _open("timings.csv") as fh:
                fh.write("method,plan,mean_fit_seconds\n")
                for e in self.entries:
                    fh.write(f"{e.method},{e.plan},{e.mean_fit_seconds:.6f}\n")
            with _open("deviations.csv") as fh:
                fh.write("method,plan,coordinate,replication,deviation\n")
                for e in self.entries:
                    for j, values in sorted(e.deviations.items()):
                        for m, v in enumerate(values):
                            fh.write(f"{e.method},{e.plan},{j},{m},{v:.17g}\n")
            with _open("normality.csv") as fh:
                fh.write("method,plan,coordinate,std_dev,ad_statistic,p_value\n")
                for e in self.entries:
                    for j, stats in sorted(e.normality.items()):
                        fh.write(
                            f"{e.method},{e.plan},{j},{stats['std_dev']:.17g},"
                            f"{stats['ad_statistic']:.17g},{stats['p_value']:.17g}\n"
                        )
            with _open("bic_minimizers.csv") as fh:
                fh.write("method,plan,grid_index,count\n")
                for e in self.entries:
                    if e.bic_minimizer_counts is None:
                        continue
                    for j, count in enumerate(e.bic_minimizer_counts, start=1):
                        fh.write(f"{e.method},{e.plan},{j},{count}\n")
        except BaseException:
            for path in written:
                os.unlink(path)
            raise
        return written


def metric_false_zeros(estimates, active_set) -> float:
    """Percentage of active coordinates estimated as exactly zero."""
    active = sorted(active_set)
    if not active:
        raise EmptyActiveSet("active set must be non-empty")
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    m = est.shape[0]
    misses = (est[:, active] == 0.0).sum(axis=1) / len(active)
    return float(100.0 * misses.sum() / m)


def metric_false_nonzeros(estimates, active_set, p: int) -> float:
    """Percentage of inactive coordinates estimated as nonzero."""
    active = set(active_set)
    inactive = sorted(set(range(p)) - active)
    if not inactive:
        raise FullActiveSet("the active set covers every coordinate")
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    m = est.shape[0]
    spurious = (est[:, inactive] != 0.0).sum(axis=1) / len(inactive)
    return float(100.0 * spurious.sum() / m)


def anderson_darling_normality(sample) -> tuple[float, float]:
    """Anderson-Darling statistic and approximate p-value for normality with
    estimated mean and variance (the usual case-3 adjustment)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    mean = x.mean()
    std = x.std(ddof=1)
    if std == 0.0 or not np.isfinite(std):
        raise DegenerateSample("sample variance is zero; normality test undefined")
    from scipy.special import ndtr  # the normal CDF; scipy.stats imports far slower

    u = ndtr((x - mean) / std)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    adj = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    if adj >= 0.6:
        p = math.exp(1.2937 - 5.709 * adj + 0.0186 * adj**2)
    elif adj >= 0.34:
        p = math.exp(0.9177 - 4.279 * adj - 1.38 * adj**2)
    elif adj > 0.2:
        p = 1.0 - math.exp(-8.318 + 42.796 * adj - 59.938 * adj**2)
    else:
        p = 1.0 - math.exp(-13.436 + 101.14 * adj - 223.73 * adj**2)
    return float(a2), float(min(max(p, 0.0), 1.0))


def normality_summary(deviations) -> tuple[float, float, float]:
    """(standard deviation, AD statistic, p-value) of standardized deviations."""
    dev = np.asarray(deviations, dtype=float)
    if len(dev) < 20:
        raise TooFewSamples("normality summary needs at least 20 deviations")
    stat, p = anderson_darling_normality(dev)
    return float(dev.std(ddof=1)), stat, p


def replication_seed(master_seed: int, index: int) -> int:
    """Pure, splittable seed derivation for replication `index`."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _fit_config(spec: SimulationSpec, loss: LossKind, lam: float) -> FitConfig:
    return FitConfig(
        loss=loss, lam=lam, gamma=spec.gamma, tol=spec.tol, max_iter=spec.max_iter
    )


def _labelled_plans(spec: SimulationSpec) -> list[tuple[str, AggregationPlan]]:
    """The study's plans under their report labels; the full-data fit, when
    compared, is the one-group plan under its own label."""
    full = [(FULL_DATA_LABEL, AggregationPlan(K=1, w=1))] if spec.compare_full_data else []
    return full + [(plan.label(), plan) for plan in spec.plans]


def _censoring_bound(gen: GenerationSpec) -> float:
    """The censoring bound shared by every replication: none at rate 0."""
    if gen.target_censoring_rate == 0.0:
        return math.inf
    return calibrate_censoring_bound(gen, gen.target_censoring_rate)


def _run_replication(
    spec: SimulationSpec, index: int, bound: float, n_jobs: int = 1
) -> tuple[float, dict]:
    """All fits for one replication: the seconds spent generating its data,
    and per-(method, plan) records of each fit with its seconds.

    The BIC rule scans a grid in every group (lambda unused, 0); the fixed
    rule takes grid point j at the group size n // K.  Each aggregated fit
    gets n_jobs (`fit_aggregated`).
    """
    gen = spec.generation.with_seed(replication_seed(spec.master_seed, index))
    t0 = time.perf_counter()
    dataset, latents = generate_with_latents(gen, bound=bound)
    generate_seconds = time.perf_counter() - t0
    tuned = spec.lambda_rule.kind == LambdaRule.BIC_GRID
    bic_config = BicConfig(penalty_mode=spec.penalty_mode) if tuned else None
    records: dict[tuple[str, str], dict] = {}
    for method in spec.methods:
        loss = method.resolve(latents.errors)
        for label, plan in _labelled_plans(spec):
            lam = 0.0 if tuned else fixed_lambda(dataset.n // plan.K, spec.lambda_rule.j)
            t0 = time.perf_counter()
            agg = fit_aggregated(dataset, plan, _fit_config(spec, loss, lam),
                                 bic_config=bic_config, n_jobs=n_jobs)
            seconds = time.perf_counter() - t0
            bic_indices = []
            if tuned:
                grid = lambda_grid(dataset.n // plan.K)
                for lam_k in agg.group_lambdas:
                    bic_indices.append(int(np.argmin(np.abs(grid - lam_k))) + 1)
            records[(method.label(), label)] = {
                "beta": agg.beta_check.tolist(),
                "seconds": seconds,
                "bic_indices": bic_indices,
            }
    return generate_seconds, records


def _worker(args):
    spec, index, bound = args
    try:
        return index, _run_replication(spec, index, bound), None
    except CensLassoError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def run_study(spec: SimulationSpec, n_jobs: int = 1) -> SimulationReport:
    """Run the Monte Carlo study and aggregate metrics into a report.

    Failed replications are recorded with their seed and excluded; everything
    else is a deterministic function of the spec (timing fields excepted).
    """
    gen = spec.generation
    active = sorted(gen.active_set)
    if not 0 < len(active) < gen.p:
        raise ConfigError("a study scores selection, so beta0 needs both a zero "
                          "and a nonzero coordinate")
    bound = _censoring_bound(gen)
    jobs = [(spec, m, bound) for m in range(spec.M)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            raw = list(pool.map(_worker, jobs, chunksize=1))
    else:
        raw = [_worker(j) for j in jobs]
    raw.sort(key=lambda r: r[0])

    failures = [
        {"replication": idx, "seed": replication_seed(spec.master_seed, idx), "error": err}
        for idx, _, err in raw
        if err is not None
    ]
    successes = [out[1] for _, out, err in raw if err is None]
    if not successes:
        first = failures[0]
        raise EstimationError(
            f"all {len(failures)} replications failed; replication "
            f"{first['replication']}: {first['error']}"
        )

    keys = [(method.label(), label)
            for method in spec.methods for label, _ in _labelled_plans(spec)]

    beta0 = gen.beta0_array
    entries = []
    for key in keys:
        betas = np.array([rec[key]["beta"] for rec in successes])
        seconds = [rec[key]["seconds"] for rec in successes]
        bic_all = [j for rec in successes for j in rec[key]["bic_indices"]]
        m_used = len(successes)
        deviations = {
            j: (math.sqrt(gen.n) * (betas[:, j] - beta0[j])).tolist() for j in active
        }
        normality = {}
        for j, dev in deviations.items():
            try:
                std, stat, p = normality_summary(dev)
                normality[j] = {"std_dev": std, "ad_statistic": stat, "p_value": p}
            except (TooFewSamples, DegenerateSample):
                pass
        counts = None
        if spec.lambda_rule.kind == LambdaRule.BIC_GRID:
            counts = [0] * GRID_SIZE
            for j in bic_all:
                counts[j - 1] += 1
        entries.append(
            MethodPlanReport(
                method=key[0],
                plan=key[1],
                replications_used=m_used,
                false_zero_pct=metric_false_zeros(betas, active),
                false_nonzero_pct=metric_false_nonzeros(betas, active, gen.p),
                l1_bias_active=float(
                    np.mean(np.abs(betas[:, active] - beta0[active]).sum(axis=1))
                ),
                mean_fit_seconds=float(np.mean(seconds)),
                deviations=deviations,
                normality=normality,
                bic_minimizer_counts=counts,
            )
        )
    return SimulationReport(
        entries=entries,
        failed_replications=failures,
        active_set=active,
        n=gen.n,
        p=gen.p,
    )


def timing_benchmark(spec: SimulationSpec) -> list[dict]:
    """Wall-clock seconds of the study's replication 0.

    Per plan: data generation (one dataset serves every plan, so its time
    repeats on each plan's rows), each method's aggregated fit, and the
    total of those.  The full-data comparison is not timed.  Each fit runs
    in turn; an aggregated fit's groups are fitted as the paper's
    comparison has them, side by side, on one worker process per CPU where
    they run one at a time (`fit_aggregated`).  The K = 1 fit runs in the
    calling process.
    """
    generate_seconds, records = _run_replication(
        replace(spec, compare_full_data=False), 0, _censoring_bound(spec.generation),
        n_jobs=os.cpu_count() or 1,
    )
    rows = []
    for plan in spec.plans:
        fits = [(m.label(), records[(m.label(), plan.label())]["seconds"])
                for m in spec.methods]
        rows.append({"K": plan.K, "phase": "generate", "seconds": generate_seconds})
        rows.extend({"K": plan.K, "phase": label, "seconds": s} for label, s in fits)
        total = generate_seconds + sum(s for _, s in fits)
        rows.append({"K": plan.K, "phase": "total", "seconds": total})
    return rows


def timing_rows_to_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("K,phase,seconds\n")
        for row in rows:
            fh.write(f"{row['K']},{row['phase']},{row['seconds']:.6f}\n")

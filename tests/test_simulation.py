import math
import os

import numpy as np
import pytest

from censlasso import simulation
from censlasso.aggregation import AggregationPlan
from censlasso.data import GenerationSpec
from censlasso.errors import (
    DegenerateSample,
    EmptyActiveSet,
    FullActiveSet,
    TooFewSamples,
)
from censlasso.simulation import (
    LambdaRule,
    MethodSpec,
    SimulationSpec,
    metric_false_nonzeros,
    metric_false_zeros,
    normality_summary,
    replication_seed,
    run_study,
    timing_benchmark,
    timing_rows_to_csv,
)


def tiny_spec(M=2, n=240, p=4, methods=None, plans=None, rule=None, **kwargs):
    return SimulationSpec(
        M=M,
        generation=GenerationSpec(
            n=n, p=p, beta0=(1.0, -2.0) + (0.0,) * (p - 2), seed=0
        ),
        methods=tuple(methods or [MethodSpec("expectile")]),
        plans=tuple(plans or [AggregationPlan(K=2, w=1)]),
        lambda_rule=rule or LambdaRule(LambdaRule.FIXED, 1),
        master_seed=101,
        **kwargs,
    )


# --- metrics ----------------------------------------------------------------

def test_false_zeros_perfect_selection():
    est = np.array([[1.0, -2.0, 0.0], [0.5, -1.0, 0.0]])
    assert metric_false_zeros(est, {0, 1}) == 0.0


def test_false_zeros_all_missed():
    est = np.zeros((3, 4))
    assert metric_false_zeros(est, {0, 1}) == 100.0


def test_false_zeros_partial():
    # one estimate misses 1 of 2 active coordinates, the other is perfect
    est = np.array([[1.0, 0.0, 0.0], [1.0, -2.0, 0.0]])
    assert metric_false_zeros(est, {0, 1}) == pytest.approx(25.0)


def test_false_zeros_empty_active_set():
    with pytest.raises(EmptyActiveSet):
        metric_false_zeros(np.ones((2, 3)), set())


def test_false_nonzeros_perfect():
    est = np.array([[1.0, -2.0, 0.0, 0.0]])
    assert metric_false_nonzeros(est, {0, 1}, 4) == 0.0


def test_false_nonzeros_one_spurious_in_ten():
    p = 50
    active = {0, 1}
    est = np.zeros((10, p))
    est[:, [0, 1]] = [1.0, -2.0]
    est[3, 7] = 0.01  # a single spurious coordinate in one replication
    val = metric_false_nonzeros(est, active, p)
    assert val == pytest.approx(100.0 * (1 / 48) / 10)
    assert val == pytest.approx(0.2083, abs=1e-4)


def test_false_nonzeros_every_inactive_selected():
    est = np.ones((4, 6))
    assert metric_false_nonzeros(est, {0}, 6) == 100.0


def test_false_nonzeros_full_active_set():
    with pytest.raises(FullActiveSet):
        metric_false_nonzeros(np.ones((2, 3)), {0, 1, 2}, 3)


# --- normality --------------------------------------------------------------

def test_normality_accepts_normal_sample():
    rng = np.random.default_rng(12)
    std, stat, p = normality_summary(rng.normal(size=200))
    assert p > 0.01
    assert std == pytest.approx(1.0, abs=0.2)


def test_normality_rejects_uniform_sample():
    rng = np.random.default_rng(13)
    _, _, p = normality_summary(rng.uniform(size=200))
    assert p < 0.01


@pytest.mark.parametrize("draw, seed, expected", [
    (lambda rng: rng.normal(size=200), 17, (0.18205995643657502, 0.9114904716470761)),
    (lambda rng: rng.normal(size=20), 17, (0.18220696909182976, 0.8992397851672823)),
    (lambda rng: rng.logistic(size=60), 6, (0.24536386766267526, 0.7492765455599488)),
    (lambda rng: rng.logistic(size=60), 0, (0.4375342115173453, 0.286434939718176)),
    (lambda rng: rng.uniform(size=200), 17, (1.2676899786702336, 0.002629477928518592)),
    (lambda rng: rng.exponential(size=40), 17, (4.593605724591853, 1.3193106708603999e-11)),
    (lambda rng: rng.standard_t(3, size=120), 17, (6.796723303951225, 9.552991084424932e-17)),
], ids=["normal", "normal-20", "logistic-low", "logistic-mid", "uniform", "exponential", "t3"])
def test_anderson_darling_is_pinned_to_scipy_stats(draw, seed, expected):
    # expected: the statistic and p-value through scipy.stats.norm.cdf, one
    # sample per branch of the p-value approximation
    import scipy.stats

    sample = draw(np.random.default_rng(seed))
    assert simulation.anderson_darling_normality(sample) == expected
    # scipy.stats.anderson sums log-CDFs, which differ in the last digits
    reference = scipy.stats.anderson(sample, "norm", method="interpolate").statistic
    assert expected[0] == pytest.approx(reference, rel=1e-9)


def test_normality_too_few_samples():
    with pytest.raises(TooFewSamples):
        normality_summary(np.ones(10))


def test_normality_constant_sample():
    with pytest.raises(DegenerateSample):
        normality_summary(np.ones(50))


# --- seeding ----------------------------------------------------------------

def test_replication_seed_pure_and_distinct():
    a = replication_seed(42, 0)
    b = replication_seed(42, 0)
    c = replication_seed(42, 1)
    d = replication_seed(43, 0)
    assert a == b
    assert len({a, c, d}) == 3


# --- studies ----------------------------------------------------------------

def test_run_study_deterministic_serialization():
    spec = tiny_spec()
    r1 = run_study(spec)
    r2 = run_study(spec)
    assert r1.to_json() == r2.to_json()


def test_run_study_k1_plan_equals_full_data_fit():
    spec = tiny_spec(
        M=1,
        plans=[AggregationPlan(K=1, w=1)],
        compare_full_data=True,
    )
    report = run_study(spec)
    full = report.entry("expectile", "full")
    k1 = report.entry("expectile", "K=1,w=1")
    assert full.deviations == k1.deviations
    assert full.l1_bias_active == k1.l1_bias_active


def test_run_study_report_structure():
    spec = tiny_spec(
        M=3,
        methods=[MethodSpec("expectile"), MethodSpec("median")],
        plans=[AggregationPlan(K=2, w=1), AggregationPlan(K=3, w=1)],
    )
    report = run_study(spec)
    assert len(report.entries) == 4
    e = report.entry("expectile", "K=2,w=1")
    assert e.replications_used == 3
    assert 0.0 <= e.false_zero_pct <= 100.0
    assert 0.0 <= e.false_nonzero_pct <= 100.0
    assert set(e.deviations) == {0, 1}
    assert all(len(v) == 3 for v in e.deviations.values())
    assert e.mean_fit_seconds > 0.0


def test_run_study_bic_histogram_collected():
    spec = tiny_spec(M=2, rule=LambdaRule(LambdaRule.BIC_GRID))
    report = run_study(spec)
    counts = report.entry("expectile", "K=2,w=1").bic_minimizer_counts
    assert counts is not None
    assert len(counts) == 20
    assert sum(counts) == 2 * 2  # M replications x K groups


def test_run_study_parallel_matches_serial():
    spec = tiny_spec(M=3)
    serial = run_study(spec, n_jobs=1)
    parallel = run_study(spec, n_jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_run_study_auto_indices_match_gumbel_shape():
    # the per-replication estimated indices should sit near the quadrature
    # values for Gumbel errors, so selection succeeds even at modest n
    spec = tiny_spec(
        M=2, n=400,
        methods=[MethodSpec("expectile"), MethodSpec("quantile")],
        plans=[AggregationPlan(K=1, w=1)],
    )
    report = run_study(spec)
    for method in ("expectile", "quantile"):
        e = report.entry(method, "K=1,w=1")
        assert e.false_zero_pct == 0.0


def test_run_study_composite_quantile_supported():
    spec = tiny_spec(
        M=1, n=160,
        methods=[MethodSpec("composite_quantile", n_levels=3)],
        plans=[AggregationPlan(K=1, w=1)],
    )
    report = run_study(spec)
    e = report.entry("composite_quantile", "K=1,w=1")
    assert e.replications_used == 1
    assert 0.0 <= e.false_nonzero_pct <= 100.0


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(M=0)
    with pytest.raises(ValueError):
        SimulationSpec(
            M=1,
            generation=GenerationSpec(n=10, p=1, beta0=(1.0,)),
            methods=(MethodSpec("expectile"),),
            plans=(),
        )
    with pytest.raises(ValueError):
        LambdaRule("nope")
    with pytest.raises(ValueError):
        LambdaRule(LambdaRule.FIXED, 0)
    with pytest.raises(ValueError):
        MethodSpec("unknown_family")


# --- reports and exports ------------------------------------------------------

def test_report_csv_tables(tmp_path):
    spec = tiny_spec(M=2, rule=LambdaRule(LambdaRule.BIC_GRID))
    report = run_study(spec)
    files = report.write_csv_tables(tmp_path)
    names = {f.split("/")[-1] for f in files}
    assert names == {
        "selection_metrics.csv",
        "timings.csv",
        "deviations.csv",
        "normality.csv",
        "bic_minimizers.csv",
    }
    metrics = (tmp_path / "selection_metrics.csv").read_text().splitlines()
    assert metrics[0] == (
        "method,plan,replications_used,false_zero_pct,"
        "false_nonzero_pct,l1_bias_active"
    )
    assert len(metrics) == 2  # header + one (method, plan)
    devs = (tmp_path / "deviations.csv").read_text().splitlines()
    assert devs[0] == "method,plan,coordinate,replication,deviation"
    assert len(devs) == 1 + 2 * 2  # two active coordinates x two replications


def test_timing_benchmark_fits_groups_on_one_worker_per_cpu(monkeypatch):
    spec = tiny_spec(M=1, methods=[MethodSpec("median")],
                     plans=[AggregationPlan(K=1, w=1), AggregationPlan(K=2, w=1)])
    seen = []
    fit = simulation.fit_aggregated

    def spy(*args, n_jobs=1, **kwargs):
        seen.append(n_jobs)
        return fit(*args, n_jobs=n_jobs, **kwargs)

    monkeypatch.setattr(simulation, "fit_aggregated", spy)
    timing_benchmark(spec)
    assert seen == [os.cpu_count() or 1] * 2


def test_timing_benchmark_rows(tmp_path, monkeypatch):
    spec = tiny_spec(
        M=1,
        methods=[MethodSpec("expectile"), MethodSpec("median")],
        plans=[AggregationPlan(K=1, w=1), AggregationPlan(K=2, w=1)],
    )
    calls = []
    generate = simulation.generate_with_latents

    def counting_generate(*args, **kwargs):
        calls.append(1)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulation, "generate_with_latents", counting_generate)
    rows = timing_benchmark(spec)
    assert len(calls) == 1  # one dataset serves every plan
    phases = ["generate", "expectile", "median", "total"]
    assert [(row["K"], row["phase"]) for row in rows] == [
        (k, phase) for k in (1, 2) for phase in phases
    ]
    assert all(row["seconds"] > 0.0 for row in rows)
    for k in (1, 2):
        seconds = [row["seconds"] for row in rows if row["K"] == k]
        assert seconds[-1] == pytest.approx(sum(seconds[:-1]), rel=1e-12)
    out = tmp_path / "timings.csv"
    timing_rows_to_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "K,phase,seconds"
    assert len(lines) == 1 + len(rows)

"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
from spans import PER_LAYER_METRICS
from workloads import CliIo, MassiveFixed, McBic

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "massive-fixed": lambda: MassiveFixed(n=3000, p=20, K=5),
    "mc-bic": lambda: McBic(n=400, M=2),
    "cli-io": lambda: CliIo(n=2000, p=10, K=5),
}

# layers each workload must exercise in a traced run
EXERCISED = {
    "massive-fixed": [
        "data.calibrate_s", "data.generate_s", "data.subset_s", "data.subset_calls",
        "kaplan_meier.fit_s", "kaplan_meier.fit_calls", "kaplan_meier.ipcw_s",
        "kaplan_meier.ipcw_max_weight", "losses.eval_s", "losses.eval_calls",
        "solvers.lp.pilot_s", "solvers.lp.pilot_calls", "solvers.lp.pilot_iterations",
        "solvers.lp.penalized_s", "solvers.lp.penalized_calls",
        "solvers.lp.penalized_iterations", "solvers.expectile.pilot_s",
        "solvers.expectile.pilot_calls", "solvers.expectile.pilot_iterations",
        "solvers.expectile.penalized_s", "solvers.expectile.penalized_calls",
        "solvers.expectile.penalized_iterations", "aggregation.fit_aggregated_s",
        "aggregation.self_s", "aggregation.groups", "aggregation.vote_s",
        "stage.full_fit_s", "stage.agg_fit_s",
    ],
    "mc-bic": [
        "data.calibrate_s", "data.generate_s", "solvers.lp.pilot_s",
        "solvers.expectile.penalized_s", "losses.eval_calls",
        "tuning.select_lambda_s", "tuning.grid_fits", "tuning.bic_score_s",
        "tuning.bic_score_calls", "aggregation.fit_aggregated_s",
        "simulation.run_study_s", "simulation.self_s", "simulation.replications",
        "simulation.report_write_s", "cli.command_s", "cli.self_s", "cli.output_bytes",
        "stage.replications_per_s",
    ],
    "cli-io": [
        "data.load_csv_s", "data.write_csv_s", "data.csv_bytes", "data.subset_calls",
        "kaplan_meier.fit_calls", "solvers.expectile.pilot_calls",
        "aggregation.fit_aggregated_s", "aggregation.self_s", "cli.command_s",
        "cli.self_s", "cli.output_bytes", "stage.csv_write_s", "stage.cli_km_s",
        "stage.cli_aggregate_s",
    ],
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_checks_pass_end_to_end(name, tmp_path):
    wl = TINY[name]()
    state = wl.setup(11, str(tmp_path))
    rounds = [wl.run_round(state), wl.run_round(state)]
    assert wl.check(state, rounds) == []
    for r in rounds:
        assert r["attempted"] >= 1
        if name == "cli-io":
            # only the nan command may fail, and it fails while its exit code is wrong
            assert r["failed"] == (r["outputs"]["codes"]["nan"] != 2)
        else:
            assert r["failed"] == 0


def test_checks_catch_a_changed_output(tmp_path):
    wl = TINY["cli-io"]()
    state = wl.setup(11, str(tmp_path))
    rounds = [wl.run_round(state)]
    doc = json.loads(rounds[0]["outputs"]["agg"])
    doc["beta_check"][0] += 1e-12
    rounds[0]["outputs"]["agg"] = json.dumps(doc).encode()
    assert wl.check(state, rounds) == ["aggregate output differs from the in-process serial fit"]


def test_mc_bic_report_identical_with_one_and_two_workers(tmp_path):
    outputs = []
    for threads in (1, 2):
        wl = McBic(n=400, M=2, threads=threads)
        (tmp_path / str(threads)).mkdir()
        state = wl.setup(5, str(tmp_path / str(threads)))
        outputs.append(wl.run_round(state)["outputs"]["files"])
    assert "report.json" in outputs[0] and "timings.csv" not in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    res, tracer = run.traced_run(TINY[name](), 3, 0.0, str(tmp_path))
    assert res["correct"]
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert [metrics[m]["unit"] for m in metrics] == [m["unit"] for m in SPEC["per_layer"]]
    missing = [m for m in EXERCISED[name] if not metrics[m]["value"] > 0]
    assert missing == []
    assert metrics["solvers.nonconverged"]["value"] == 0
    assert metrics["tuning.failed_grid_points"]["value"] == 0

    tracer.write_jsonl(tmp_path / "trace.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    ids = {r["id"] for r in rows}
    assert all(r["parent"] is None or r["parent"] in ids for r in rows)
    assert all(r["start"] <= r["end"] for r in rows)


def test_self_time_subtracts_the_union_of_children():
    from spans import Span, Tracer, layer_metrics

    tracer = Tracer()

    def span(i, name, parent, start, end):
        s = Span(i, name, parent, start)
        s.end = end
        tracer.spans.append(s)
        return s

    root = span(1, "bench.round", None, 0.0, 10.0)
    span(2, "cli.command", 1, 0.0, 10.0)
    span(3, "data.load_csv", 2, 1.0, 4.0)
    span(4, "aggregation.fit_aggregated", 2, 3.0, 6.0)   # overlaps the load
    span(5, "data.subset", 4, 3.5, 4.5)                   # two pool threads
    span(6, "data.subset", 4, 4.0, 5.0)
    values = layer_metrics(tracer, span(7, "bench.setup", None, 0.0, 0.0), [root])
    assert values["cli.command_s"] == 10.0
    assert values["cli.self_s"] == 10.0 - 5.0
    assert values["aggregation.self_s"] == 3.0 - 1.5
    assert values["data.subset_s"] == 2.0
    assert values["data.subset_calls"] == 2


def test_product_limit_matches_a_literal_loop():
    rng = np.random.default_rng(4)
    y = rng.integers(1, 6, size=40).astype(float)       # many ties
    delta = rng.integers(0, 2, size=40)
    times, values = oracles.product_limit(y, delta)
    g = 1.0
    for t, v in zip(times, values):
        at_risk = sum(1 for yi, di in zip(y, delta) if yi > t or (yi == t and di == 0))
        d = sum(1 for yi, di in zip(y, delta) if yi == t and di == 0)
        g *= 1.0 - d / at_risk
        assert v == pytest.approx(g, rel=1e-14)


def test_optimality_oracle_rejects_a_perturbed_fit():
    from censlasso.data import SurvivalDataset
    from censlasso.losses import LossKind
    from censlasso.solvers import FitConfig, fit_adaptive_lasso, fit_unpenalized

    rng = np.random.default_rng(8)
    x = rng.normal(1.0, 1.0, (300, 4))
    z = x @ np.array([1.0, -2.0, 0.0, 0.0]) + rng.gumbel(size=300)
    ds = SurvivalDataset(np.exp(z), np.ones(300), x)
    w = np.ones(300)
    for loss in (LossKind("median"), LossKind("quantile", tau=0.37),
                 LossKind("expectile", tau=0.22)):
        cfg = FitConfig(loss=loss, lam=10.0)
        pilot = fit_unpenalized(ds, oracles.Weights(w), loss, cfg.replace(lam=0.0))
        fit = fit_adaptive_lasso(ds, oracles.Weights(w), cfg, pilot.beta)
        lam_w = 10.0 / np.abs(pilot.beta)
        good = oracles.optimality_violation(x, z, w, loss.family, loss.tau, lam_w, fit.beta)
        bad = oracles.optimality_violation(x, z, w, loss.family, loss.tau, lam_w,
                                           fit.beta + np.array([1e-3, 0, 0, 0]))
        assert good <= oracles.KKT_REL_TOL < bad


def test_gumbel_expectile_index_matches_a_large_sample():
    eps = np.random.default_rng(0).gumbel(size=1_000_000)
    neg, pos = -eps[eps < 0].sum(), eps[eps > 0].sum()
    assert oracles.gumbel_expectile_index() == pytest.approx(neg / (neg + pos), abs=1e-3)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER_METRICS
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's three workloads.

A workload has a set-up (import, censoring calibration, data generation), a
round (the timed operations, repeated whole until the run's time is up) and
checks on what the rounds produced.  Every input is a function of the seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import statistics
import time

import numpy as np

import oracles


def _beta0(p):
    return (1.0, -2.0) + (0.0,) * (p - 2)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _run_cli(argv):
    """censlasso.cli.main in this process, its console output kept aside."""
    from censlasso import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _median(rounds, key):
    """Median over rounds of one of the rounds' timings."""
    return statistics.median(r["timings"][key] for r in rounds)


class MassiveFixed:
    """Full-data (K = 1) against aggregated (K = 25) fits with the fixed
    lambda rule j = 1, serially, for median, quantile(tau^) and
    expectile(tau^) on one dataset."""

    name = "massive-fixed"
    methods = ("median", "quantile", "expectile")

    def __init__(self, n=20_000, p=50, K=25):
        self.n, self.p, self.K = n, p, K

    def setup(self, seed, workdir):
        from censlasso import data
        from censlasso.simulation import MethodSpec

        spec = data.GenerationSpec(n=self.n, p=self.p, beta0=_beta0(self.p), seed=seed)
        bound = data.calibrate_censoring_bound(spec, spec.target_censoring_rate)
        dataset, latents = data.generate_with_latents(spec, bound=bound)
        losses = {m: MethodSpec(m).resolve(latents.errors) for m in self.methods}
        return {"dataset": dataset, "losses": losses}

    def _plans(self):
        from censlasso.aggregation import AggregationPlan
        from censlasso.tuning import fixed_lambda

        return [(AggregationPlan(K=1, w=1), fixed_lambda(self.n, 1)),
                (AggregationPlan(K=self.K), fixed_lambda(self.n // self.K, 1))]

    def run_round(self, state, single_process=False):
        from censlasso import aggregation
        from censlasso.solvers import FitConfig

        timings = {"full_fit_s": 0.0, "agg_fit_s": 0.0}
        outputs = {}
        t0 = time.perf_counter()
        for plan, lam in self._plans():
            key = "full_fit_s" if plan.K == 1 else "agg_fit_s"
            for method, loss in state["losses"].items():
                result, dt = _timed(aggregation.fit_aggregated, state["dataset"], plan,
                                    FitConfig(loss=loss, lam=lam), n_jobs=1)
                timings[key] += dt
                outputs[(method, plan.K)] = result
        timings["wall_s"] = time.perf_counter() - t0
        return {"timings": timings, "attempted": len(outputs), "failed": 0,
                "outputs": outputs}

    def check(self, state, rounds):
        from censlasso.solvers import FitConfig, adaptive_weights, fit_unpenalized

        problems = []
        ds = state["dataset"]
        first = rounds[0]["outputs"]
        for (method, K), agg in first.items():
            # one full-data fit may keep a stray coordinate at this n (seed 1:
            # median keeps 16 and 33); the vote over K groups must not
            support = set(agg.voted_support)
            if not ({0, 1} <= support and (K == 1 or support == {0, 1})):
                problems.append(f"{method} K={K}: voted support {sorted(support)}")
            elif not (agg.beta_check[0] > 0.0 > agg.beta_check[1]):
                problems.append(f"{method} K={K}: signs {agg.beta_check[:2]} differ from beta0")
        for r in rounds[1:]:
            for key, agg in r["outputs"].items():
                if not np.array_equal(agg.beta_check, first[key].beta_check):
                    problems.append(f"{key}: a later round changed the estimate")

        # the K = 1 fits: pilot and penalized fit both optimal under weights
        # recomputed here from the definitions
        w = oracles.ipcw(ds.y, ds.delta)
        z = np.log(ds.y)
        lam = self._plans()[0][1]
        for method, loss in state["losses"].items():
            pilot = fit_unpenalized(ds, oracles.Weights(w), loss, FitConfig(loss=loss))
            fit = first[(method, 1)].group_results[0]
            for label, beta, lam_w in (
                ("pilot", pilot.beta, np.zeros(ds.p)),
                ("penalized", fit.beta, lam * adaptive_weights(pilot.beta)),
            ):
                v = oracles.optimality_violation(ds.x, z, w, loss.family, loss.tau,
                                                 lam_w, beta)
                if not v <= oracles.KKT_REL_TOL:
                    problems.append(f"{method} K=1 {label}: optimality violation {v:.2e}")
        return problems

    def stages(self, rounds):
        return {"stage.full_fit_s": _median(rounds, "full_fit_s"),
                "stage.agg_fit_s": _median(rounds, "agg_fit_s")}


class McBic:
    """`censlasso simulate`: a BIC-tuned Monte Carlo study on a small design."""

    name = "mc-bic"
    methods = ("expectile", "median", "quantile")
    Ks = (1, 5)
    min_bic_share = 0.60          # acceptance 6: minimizers on grid points 1-3
    # selection consistency: at n = 2000 (groups of 400) the active
    # coefficients (|beta0_j| >= 1) are never dropped, and on average fewer
    # than one null coordinate in eight is kept
    max_false_zero_pct = 0.0
    max_false_nonzero_pct = 12.5

    def __init__(self, n=2000, p=10, M=2, threads=2):
        self.n, self.p, self.M, self.threads = n, p, M, threads

    def setup(self, seed, workdir):
        from censlasso import data

        os.environ.pop("CENSLASSO_SEED", None)
        spec = data.GenerationSpec(n=self.n, p=self.p, beta0=_beta0(self.p), seed=seed)
        bound = data.calibrate_censoring_bound(spec, spec.target_censoring_rate)
        data.generate_with_latents(spec, bound=bound)
        config = os.path.join(workdir, "study.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(
                "[generation]\n"
                f"n = {self.n}\np = {self.p}\nbeta0 = 1,-2\nseed = 0\n"
                "[simulation]\n"
                f"replications = {self.M}\n"
                f"methods = {', '.join(self.methods)}\n"
                f"lambda_rule = bic\nmaster_seed = {seed}\n"
                "[aggregation]\n"
                f"K = {', '.join(map(str, self.Ks))}\nw = sqrt\n"
            )
        rss_dir = os.path.join(workdir, "worker_rss")
        os.makedirs(rss_dir, exist_ok=True)
        return {"config": config, "out": os.path.join(workdir, "study"),
                "rss_dir": rss_dir, "worker_rss_kb": 0}

    def run_round(self, state, single_process=False):
        # a traced round runs the study in one process so every span lands
        # in this process's trace
        threads = 1 if single_process else self.threads
        with _worker_rss(state["rss_dir"]) if threads > 1 else contextlib.nullcontext():
            (code, log), dt = _timed(_run_cli, [
                "simulate", "--config", state["config"], "--output-dir", state["out"],
                "--threads", str(threads)])
        state["worker_rss_kb"] = max(state["worker_rss_kb"], _drain_rss(state["rss_dir"]))
        files = {}
        if code == 0:
            for name in sorted(os.listdir(state["out"])):
                if name != "timings.csv":
                    with open(os.path.join(state["out"], name), "rb") as fh:
                        files[name] = fh.read()
        report = json.loads(files["report.json"]) if code == 0 else None
        failed = self.M if report is None else len(report["failed_replications"])
        return {"timings": {"wall_s": dt}, "attempted": self.M, "failed": failed,
                "outputs": {"code": code, "log": log, "files": files, "report": report}}

    def check(self, state, rounds):
        first = rounds[0]["outputs"]
        if first["code"] != 0:
            return [f"simulate exited {first['code']}: {first['log'].strip()}"]
        report = first["report"]
        problems = []
        if report["failed_replications"]:
            problems.append(f"failed replications: {report['failed_replications']}")
        for e in report["entries"]:
            label = f"{e['method']} {e['plan']}"
            if e["false_zero_pct"] > self.max_false_zero_pct:
                problems.append(f"{label}: false zeros {e['false_zero_pct']}%")
            if e["false_nonzero_pct"] > self.max_false_nonzero_pct:
                problems.append(f"{label}: false non-zeros {e['false_nonzero_pct']}%")
            counts = e["bic_minimizer_counts"]
            K = int(e["plan"].split(",")[0].split("=")[1])
            if sum(counts) != self.M * K:
                problems.append(f"{label}: {sum(counts)} BIC minimizers, expected {self.M * K}")
            elif sum(counts[:3]) < self.min_bic_share * sum(counts):
                problems.append(f"{label}: BIC minimizers on points 1-3: {counts[:3]} of {sum(counts)}")
        expected = {(m, f"K={K},w={max(1, int(K ** 0.5))}") for m in self.methods for K in self.Ks}
        if {(e["method"], e["plan"]) for e in report["entries"]} != expected:
            problems.append("report entries differ from the study's methods and plans")
        for r in rounds[1:]:
            if r["outputs"]["files"] != first["files"]:
                problems.append("a later round's report differs from the first")
                break
        return problems

    def stages(self, rounds):
        return {"stage.replications_per_s": self.M / _median(rounds, "wall_s")}


@contextlib.contextmanager
def _worker_rss(directory):
    """Have each study worker record its peak RSS in `directory`.

    Workers fork from this process and find `_worker` by name, so replacing
    the module attribute here reaches them; the original is restored after.
    """
    from censlasso import simulation

    original = simulation._worker

    @functools.wraps(original)
    def worker(args):
        out = original(args)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.path.join(directory, str(os.getpid())), "w") as fh:
            fh.write(str(peak))
        return out

    simulation._worker = worker
    try:
        yield
    finally:
        simulation._worker = original


def _drain_rss(directory):
    """Sum of the recorded worker peaks (KiB); the records are removed."""
    total = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path) as fh:
            total += int(fh.read())
        os.unlink(path)
    return total


class CliIo:
    """CSV writing, then `censlasso km` and `censlasso aggregate` on that
    file, plus `censlasso km` on a 3-row CSV whose covariate is nan."""

    name = "cli-io"
    NAN_CSV = "y,delta,x1\n1.5,1,0.25\n2.5,0,nan\n0.5,1,1.0\n"

    def __init__(self, n=20_000, p=50, K=50, threads=2):
        self.n, self.p, self.K, self.threads = n, p, K, threads

    def setup(self, seed, workdir):
        from censlasso import data

        spec = data.GenerationSpec(n=self.n, p=self.p, beta0=_beta0(self.p), seed=seed)
        bound = data.calibrate_censoring_bound(spec, spec.target_censoring_rate)
        dataset, _ = data.generate_with_latents(spec, bound=bound)
        nan_csv = os.path.join(workdir, "nan.csv")
        with open(nan_csv, "w", encoding="utf-8") as fh:
            fh.write(self.NAN_CSV)
        tau = oracles.gumbel_expectile_index()
        lam = (self.n // self.K) ** 0.4       # fixed rule j = 1 at the group size
        return {"dataset": dataset, "tau": tau, "lam": lam, "nan_csv": nan_csv,
                "csv": os.path.join(workdir, "data.csv"),
                "km": os.path.join(workdir, "km.csv"),
                "agg": os.path.join(workdir, "agg.json"),
                "nan_out": os.path.join(workdir, "nan_km.csv")}

    def aggregate_argv(self, state):
        return ["aggregate", "--data", state["csv"], "--method", f"expectile:{state['tau']!r}",
                "--K", str(self.K), "--lambda", repr(state["lam"]),
                "--threads", str(self.threads), "--output", state["agg"]]

    def run_round(self, state, single_process=False):
        from censlasso import data

        t_start = time.perf_counter()
        _, t_write = _timed(data.write_csv, state["dataset"], state["csv"])
        (km_code, km_log), t_km = _timed(
            _run_cli, ["km", "--data", state["csv"], "--output", state["km"]])
        (agg_code, agg_log), t_agg = _timed(_run_cli, self.aggregate_argv(state))
        nan_code, nan_log = _run_cli(
            ["km", "--data", state["nan_csv"], "--output", state["nan_out"]])
        wall = time.perf_counter() - t_start

        outputs = {"codes": {"km": km_code, "aggregate": agg_code, "nan": nan_code},
                   "logs": {"km": km_log, "aggregate": agg_log, "nan": nan_log}}
        for key in ("km", "agg"):
            if os.path.exists(state[key]):
                with open(state[key], "rb") as fh:
                    outputs[key] = fh.read()
                os.unlink(state[key])
        # a nan covariate is an input error (exit 2)
        failed = (km_code != 0) + (agg_code != 0) + (nan_code != 2)
        return {"timings": {"wall_s": wall, "csv_write_s": t_write, "cli_km_s": t_km,
                            "cli_aggregate_s": t_agg},
                "attempted": 4, "failed": failed, "outputs": outputs}

    def check(self, state, rounds):
        from censlasso import data
        from censlasso.aggregation import AggregationPlan, fit_aggregated
        from censlasso.losses import LossKind
        from censlasso.solvers import FitConfig

        ds = state["dataset"]
        first = rounds[0]["outputs"]
        problems = []
        for cmd in ("km", "aggregate"):
            if first["codes"][cmd] != 0:
                problems.append(f"{cmd} exited {first['codes'][cmd]}: {first['logs'][cmd].strip()}")
        if problems:
            return problems

        if not data.load_csv(state["csv"]) == ds:
            problems.append("load_csv(write_csv(ds)) differs from ds")

        rows = np.loadtxt(io.StringIO(first["km"].decode()), delimiter=",", skiprows=1, ndmin=2)
        times, values = oracles.product_limit(ds.y, ds.delta)
        if not (rows[0].tolist() == [0.0, 1.0] and np.array_equal(rows[1:, 0], times)
                and np.allclose(rows[1:, 1], values, rtol=1e-12, atol=0.0)):
            problems.append("km curve differs from the product-limit oracle")

        got = json.loads(first["agg"])
        if got["voted_support"] != [0, 1]:
            problems.append(f"aggregate voted support {got['voted_support']}")
        ref = fit_aggregated(ds, AggregationPlan(K=self.K),
                             FitConfig(loss=LossKind("expectile", tau=state["tau"]),
                                       lam=state["lam"]), n_jobs=1)
        if got != json.loads(json.dumps(ref.to_dict())):
            problems.append("aggregate output differs from the in-process serial fit")

        for r in rounds[1:]:
            if (r["outputs"].get("km"), r["outputs"].get("agg")) != (first["km"], first["agg"]):
                problems.append("a later round's km or aggregate output differs")
                break
        return problems

    def stages(self, rounds):
        return {f"stage.{k}": _median(rounds, k)
                for k in ("csv_write_s", "cli_km_s", "cli_aggregate_s")}


WORKLOADS = {w.name: w for w in (MassiveFixed, McBic, CliIo)}

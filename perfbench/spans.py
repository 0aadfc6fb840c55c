"""Span recorder for the traced benchmark run.

The program is not edited: `Tracer.install` replaces each public function by
a wrapper under the name its calling module sees (for example
``censlasso.cli.load_csv`` or ``censlasso.tuning.bic_score``), and
`Tracer.uninstall` puts the originals back.  Each wrapped call becomes one
span with a name, start, end and parent, plus the work counts read off its
arguments and result.  Spans stay in memory until `write_jsonl`.

The parent of a span is the innermost open span of its thread.  Group fits
that `fit_aggregated` hands to its thread pool keep the `fit_aggregated`
span as parent, because the pool class it sees is replaced by one that
carries the submitting thread's span into the worker.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        parent = self.current()
        span = Span(next(self._ids), name, parent.id if parent else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_under(self, parent: Span | None, fn, *args, **kwargs):
        """Run fn in this thread as if `parent` were its innermost open span."""
        saved = self._stack()
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    # --- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace owner.attr by a traced wrapper.

        name is a span name or a function of the call's arguments (by
        parameter name) giving one; attrs maps (arguments, result) to the
        span's work counts.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            span = tracer.open(name(arguments) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs.update(attrs(arguments, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_thread_pool(self, module) -> None:
        tracer = self

        class SpanCarryingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn,
                                      *args, **kwargs)

        self._originals.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = SpanCarryingPool

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the package's public functions at every module that calls them."""
        from censlasso import aggregation, cli, data, simulation, solvers, tuning

        for mod in (data, simulation):
            self.wrap(mod, "calibrate_censoring_bound", "data.calibrate")
            self.wrap(mod, "generate_with_latents", "data.generate")
        for mod in (data, cli):
            self.wrap(mod, "load_csv", "data.load_csv",
                      lambda a, r: {"bytes": os.path.getsize(a["path"])})
        self.wrap(data, "write_csv", "data.write_csv",
                  lambda a, r: {"bytes": os.path.getsize(a["path"])})
        self.wrap(data.SurvivalDataset, "subset", "data.subset")

        for mod in (aggregation, cli, simulation):
            self.wrap(mod, "fit_censoring_km", "kaplan_meier.fit")
            self.wrap(mod, "ipcw_weights", "kaplan_meier.ipcw", _ipcw_attrs)

        for attr in ("check_loss", "pointwise_loss", "expectile_grad"):
            self.wrap(solvers, attr, "losses.eval")
        self.wrap(tuning, "objective_value", "losses.eval")

        for mod in (aggregation, cli, simulation, tuning):
            self.wrap(mod, "fit_unpenalized", _solver_name("pilot"), _solver_attrs)
            self.wrap(mod, "fit_adaptive_lasso", _solver_name("penalized"), _solver_attrs)

        for mod in (aggregation, cli, simulation):
            self.wrap(mod, "select_lambda", "tuning.select_lambda", _path_attrs)
        self.wrap(tuning, "bic_score", "tuning.bic_score")

        for mod in (aggregation, cli, simulation):
            self.wrap(mod, "fit_aggregated", "aggregation.fit_aggregated",
                      lambda a, r: {"groups": len(r.group_results)})
        self.wrap(aggregation, "vote_support", "aggregation.vote")
        self.wrap(aggregation, "aggregate", "aggregation.vote")
        self.wrap_thread_pool(aggregation)

        self.wrap(cli, "run_study", "simulation.run_study",
                  lambda a, r: {"replications": a["spec"].M})
        for attr in ("to_json", "write_csv_tables"):
            self.wrap(simulation.SimulationReport, attr, "simulation.report_write")

        for attr in ("cmd_fit", "cmd_km", "cmd_tune", "cmd_aggregate",
                     "cmd_simulate", "cmd_bench"):
            self.wrap(cli, attr, "cli.command", _output_attrs)

    # --- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "parent": s.parent,
                       "start": s.start, "end": s.end}
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


def _ipcw_attrs(arguments, result):
    w = np.asarray(result.w)
    return {"max_weight": float(w.max()),
            "floor_hits": int(np.count_nonzero(w >= 1.0 / result.floor_used))}


def _solver_name(phase):
    def name(arguments):
        # fit_unpenalized takes the loss or a config, fit_adaptive_lasso a config
        loss = arguments.get("loss") or arguments["config"].loss
        route = "lp" if loss.is_lp_family else "expectile"
        return f"solvers.{route}.{phase}"
    return name


def _solver_attrs(arguments, result):
    return {"iterations": int(result.iterations),
            "nonconverged": int(not result.converged)}


def _path_attrs(arguments, result):
    return {"grid_fits": len(result.entries),
            "failed_grid_points": sum(e.failed for e in result.entries)}


def _output_attrs(arguments, result):
    ns = arguments["args"]
    path = getattr(ns, "output", None)
    if path is not None:
        return {"output_bytes": os.path.getsize(path)}
    directory = ns.output_dir
    return {"output_bytes": sum(os.path.getsize(os.path.join(directory, f))
                                for f in os.listdir(directory))}


# --- per-layer metrics -------------------------------------------------------

_TIMED = {
    "data.calibrate_s": "data.calibrate",
    "data.generate_s": "data.generate",
    "data.load_csv_s": "data.load_csv",
    "data.write_csv_s": "data.write_csv",
    "data.subset_s": "data.subset",
    "kaplan_meier.fit_s": "kaplan_meier.fit",
    "kaplan_meier.ipcw_s": "kaplan_meier.ipcw",
    "losses.eval_s": "losses.eval",
    "tuning.select_lambda_s": "tuning.select_lambda",
    "tuning.bic_score_s": "tuning.bic_score",
    "aggregation.fit_aggregated_s": "aggregation.fit_aggregated",
    "aggregation.vote_s": "aggregation.vote",
    "simulation.run_study_s": "simulation.run_study",
    "simulation.report_write_s": "simulation.report_write",
    "cli.command_s": "cli.command",
}
_CALLS = {
    "data.subset_calls": "data.subset",
    "kaplan_meier.fit_calls": "kaplan_meier.fit",
    "losses.eval_calls": "losses.eval",
    "tuning.bic_score_calls": "tuning.bic_score",
}
_SELF = {
    "aggregation.self_s": "aggregation.fit_aggregated",
    "simulation.self_s": "simulation.run_study",
    "cli.self_s": "cli.command",
}
_SUMS = {
    "data.csv_bytes": (("data.load_csv", "data.write_csv"), "bytes"),
    "kaplan_meier.floor_hits": (("kaplan_meier.ipcw",), "floor_hits"),
    "tuning.grid_fits": (("tuning.select_lambda",), "grid_fits"),
    "tuning.failed_grid_points": (("tuning.select_lambda",), "failed_grid_points"),
    "aggregation.groups": (("aggregation.fit_aggregated",), "groups"),
    "simulation.replications": (("simulation.run_study",), "replications"),
    "cli.output_bytes": (("cli.command",), "output_bytes"),
}
_SOLVER_SPANS = tuple(f"solvers.{route}.{phase}"
                      for route in ("lp", "expectile")
                      for phase in ("pilot", "penalized"))
for _span in _SOLVER_SPANS:
    _TIMED[_span + "_s"] = _span
    _CALLS[_span + "_calls"] = _span
    _SUMS[_span + "_iterations"] = ((_span,), "iterations")
_SUMS["solvers.nonconverged"] = (_SOLVER_SPANS, "nonconverged")

# the workloads' own stages, timed on the untraced rounds of a traced run
STAGE_METRICS = ["stage.full_fit_s", "stage.agg_fit_s", "stage.replications_per_s",
                 "stage.csv_write_s", "stage.cli_km_s", "stage.cli_aggregate_s"]

PER_LAYER_METRICS = (sorted(_TIMED) + sorted(_CALLS) + sorted(_SELF) + sorted(_SUMS)
                     + ["kaplan_meier.ipcw_max_weight", "trace.overhead_s"]
                     + STAGE_METRICS)


class _Index:
    """Parent/child lookups over one list of finished spans."""

    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def ancestors(self, span):
        while span.parent is not None:
            span = self.by_id[span.parent]
            yield span

    def self_time(self, span) -> float:
        """Span length minus the union of its direct children's intervals."""
        covered, reach = 0.0, span.start
        for c in sorted(self.children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span.end - span.start) - covered


def layer_metrics(tracer: Tracer, setup_root: Span, round_roots: list[Span]) -> dict:
    """Per-layer values of one set-up plus one average round.

    Spans under `setup_root` count once; spans under the round roots are
    summed and divided by the number of rounds.  A `_s` value sums the
    lengths of the outermost spans of its name, so nested evaluations of the
    same layer are not counted twice; `_calls` counts those outermost spans.
    """
    index = _Index([s for s in tracer.spans if s.end is not None])
    share = {setup_root.id: 1.0}
    share.update({r.id: 1.0 / len(round_roots) for r in round_roots})

    values = {name: 0.0 for name in PER_LAYER_METRICS}
    by_name: dict[str, list[tuple[Span, float, bool]]] = {}
    for s in index.by_id.values():
        chain = list(index.ancestors(s))
        if not chain or chain[-1].id not in share:
            continue
        outermost = all(a.name != s.name for a in chain)
        by_name.setdefault(s.name, []).append((s, share[chain[-1].id], outermost))

    def spans(name):
        return by_name.get(name, ())

    for metric, name in _TIMED.items():
        values[metric] = sum(f * (s.end - s.start) for s, f, outer in spans(name) if outer)
    for metric, name in _CALLS.items():
        values[metric] = sum(f for s, f, outer in spans(name) if outer)
    for metric, name in _SELF.items():
        values[metric] = sum(f * index.self_time(s) for s, f, outer in spans(name) if outer)
    for metric, (names, key) in _SUMS.items():
        values[metric] = sum(f * s.attrs.get(key, 0)
                             for name in names for s, f, _ in spans(name))
    values["kaplan_meier.ipcw_max_weight"] = max(
        (s.attrs["max_weight"] for s, _, _ in spans("kaplan_meier.ipcw")
         if "max_weight" in s.attrs), default=0.0)
    return values

"""Command-line front end: fit, aggregate, tune, km, simulate, bench.

Every command reads plain CSV/INI inputs and writes JSON/CSV outputs so a
whole study is reproducible from one config file.  Exit codes: 0 success,
2 input parsing, 3 solver failure, 4 invalid configuration.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import __version__
from .aggregation import KM_SCOPES, AggregationPlan, fit_aggregated
from .data import GenerationSpec, load_csv
from .errors import CensLassoError, ConfigError, InputError
from .kaplan_meier import fit_censoring_km, ipcw_weights
from .losses import LossKind
from .simulation import (
    LambdaRule,
    MethodSpec,
    SimulationSpec,
    run_study,
    timing_benchmark,
    timing_rows_to_csv,
)
from .solvers import FitConfig
from .tuning import PENALTY_MODES, BicConfig, lambda_grid, select_lambda

# These run inside fit_aggregated.  They stay bound here because the traced
# benchmark run (perfbench/spans.py) wraps them under this module's name.
from .solvers import fit_adaptive_lasso, fit_unpenalized  # noqa: F401

EXIT_OK = 0


def parse_method(text: str) -> MethodSpec:
    """Parse "expectile", "quantile:0.4", "composite_quantile:10", ..."""
    text = text.strip()
    if ":" in text:
        family, arg = text.split(":", 1)
        family = family.strip()
        if family == "composite_quantile":
            return MethodSpec(family=family, n_levels=int(arg))
        return MethodSpec(family=family, tau=float(arg))
    return MethodSpec(family=text)


def _loss_for_fit(method: MethodSpec) -> LossKind:
    """Concrete loss for direct fits; auto-index methods need an explicit index."""
    if method.family in ("expectile", "quantile") and method.tau is None:
        raise ConfigError(
            f"method {method.family!r} needs an explicit index, e.g. "
            f"{method.family}:0.5 (index estimation is a simulation-only feature)"
        )
    return method.resolve(np.zeros(0))


def _choose_lambda_args(args) -> None:
    if args.lam is not None and args.bic:
        raise ConfigError("--lambda and --bic are mutually exclusive")
    if args.lam is None and not args.bic:
        raise ConfigError("choose a penalty level with --lambda or --bic")


def _fit_config(args, loss) -> FitConfig:
    config = FitConfig(loss=loss, gamma=args.gamma, fit_intercept=args.fit_intercept)
    return config if args.lam is None else config.replace(lam=args.lam)


def _bic_config(args) -> BicConfig | None:
    """The penalty rule of fit and aggregate: a BIC scan, or None for --lambda."""
    return BicConfig(penalty_mode=args.penalty_mode) if args.bic else None


def _parse_vote_rule(text: str) -> int | str:
    """The vote threshold w of --w and the study INI: an integer, or "sqrt"
    (also "sqrt_K") for floor(sqrt(K))."""
    text = text.strip()
    return "sqrt_K" if text in ("sqrt", "sqrt_K") else int(text)


def cmd_fit(args) -> int:
    dataset = load_csv(args.data)
    method = parse_method(args.method)
    loss = _loss_for_fit(method)
    # the full-data fit is the aggregated fit with one group
    agg = fit_aggregated(dataset, AggregationPlan(K=1, w=1), _fit_config(args, loss),
                         bic_config=_bic_config(args))
    result, lam = agg.group_results[0], agg.group_lambdas[0]
    payload = result.to_dict()
    payload["lambda"] = lam
    payload["method"] = method.label()
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"fit: method={method.label()} lambda={lam:g} "
          f"support={sorted(result.support)} -> {args.output}")
    return EXIT_OK


def cmd_km(args) -> int:
    dataset = load_csv(args.data)
    curve = fit_censoring_km(dataset)
    curve.to_csv(args.output)
    print(f"km: {len(curve.jump_times)} jumps -> {args.output}")
    return EXIT_OK


def cmd_tune(args) -> int:
    dataset = load_csv(args.data)
    method = parse_method(args.method)
    loss = _loss_for_fit(method)
    curve = fit_censoring_km(dataset)
    weights = ipcw_weights(dataset, curve)
    path = select_lambda(
        dataset, weights, loss, lambda_grid(dataset.n),
        BicConfig(penalty_mode=args.penalty_mode),
        fit_config=FitConfig(loss=loss, gamma=args.gamma),
    )
    path.to_csv(args.output)
    best = path.best
    print(f"tune: best lambda={best.lam:g} (index {path.best_index + 1}) "
          f"score={best.score:.6g} support={best.support_size} -> {args.output}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    dataset = load_csv(args.data)
    method = parse_method(args.method)
    loss = _loss_for_fit(method)
    plan = AggregationPlan(K=args.K, w=_parse_vote_rule(args.w), km_scope=args.km_scope)
    agg = fit_aggregated(dataset, plan, _fit_config(args, loss),
                         bic_config=_bic_config(args), n_jobs=args.threads)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(agg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"aggregate: K={plan.K} w={plan.resolved_w} "
          f"support={sorted(agg.voted_support)} -> {args.output}")
    return EXIT_OK


# --- config-file driven commands -------------------------------------------

def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_lambda_rule(text: str) -> LambdaRule:
    """A study's lambda_rule: "bic", or "fixed:j" (plain "fixed" is j = 1)."""
    text = text.strip()
    if text == "bic":
        return LambdaRule(LambdaRule.BIC_GRID)
    if text.startswith("fixed"):
        _, colon, j = text.partition(":")
        return LambdaRule(LambdaRule.FIXED, int(j)) if colon else LambdaRule(LambdaRule.FIXED)
    raise ConfigError(f"unknown lambda_rule {text!r}")


def _parse_list(parse):
    """The parser of a comma-separated list of what `parse` parses, as a
    tuple; blank entries are skipped."""
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


# every key a study INI may set, by section, with the parser of its value.
# A key the file leaves out takes the default of the type it configures,
# except the required ones (_REQUIRED) and K, whose default is 1.
# [generation] seed (no parser) is accepted and not read: each replication
# is seeded from [simulation] master_seed
_STUDY_KEYS = {
    "generation": {"n": int, "p": int, "beta0": _parse_list(float), "intercept": float,
                   "design_mean": float, "error_family": str,
                   "target_censoring_rate": float, "seed": None},
    "simulation": {"replications": int, "methods": _parse_list(parse_method),
                   "lambda_rule": _parse_lambda_rule, "master_seed": int,
                   "compare_full_data": _parse_bool},
    "aggregation": {"K": _parse_list(int), "w": _parse_vote_rule, "km_scope": str},
    "tuning": {"penalty_mode": str},
    "solvers": {"gamma": float, "tol": float, "max_iter": int},
}
_REQUIRED = (("generation", "n"), ("generation", "p"), ("generation", "beta0"),
             ("simulation", "replications"), ("simulation", "methods"))


def load_simulation_spec(path, overrides=()) -> SimulationSpec:
    """Build a SimulationSpec from an INI file plus section.key=value overrides.

    Each key the file sets is parsed by its `_STUDY_KEYS` parser and passed
    on; every other setting keeps the default of the type it configures.  A
    key that is not one of `_STUDY_KEYS`, from the file or an override, is a
    ConfigError naming its section.key, and so is a missing required key.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, key, value.strip())
    for section in cfg.sections():
        known = {cfg.optionxform(key) for key in _STUDY_KEYS.get(section, ())}
        for key in cfg.options(section):
            if key not in known:
                raise ConfigError(f"unknown config key {section}.{key}")
    for section, key in _REQUIRED:
        if not cfg.has_option(section, key):
            raise ConfigError(f"missing config key [{section}] {key}")

    keys = {section: {key: parse(cfg.get(section, key)) for key, parse in parsers.items()
                      if parse is not None and cfg.has_option(section, key)}
            for section, parsers in _STUDY_KEYS.items()}
    generation, simulation, plan = keys["generation"], keys["simulation"], keys["aggregation"]
    beta_head, p = generation.pop("beta0"), generation["p"]
    if len(beta_head) > p:
        raise ConfigError("beta0 cannot have more than p entries")
    counts = plan.pop("K", (1,))
    return SimulationSpec(
        M=simulation.pop("replications"),
        generation=GenerationSpec(beta0=beta_head + (0.0,) * (p - len(beta_head)), **generation),
        methods=simulation.pop("methods"),
        plans=tuple(AggregationPlan(K=k, **plan) for k in counts),
        **simulation,
        **keys["tuning"],
        **keys["solvers"],
    )


def cmd_simulate(args) -> int:
    spec = load_simulation_spec(args.config, args.set or ())
    os.makedirs(args.output_dir, exist_ok=True)
    report = run_study(spec, n_jobs=args.threads)
    report_path = os.path.join(args.output_dir, "report.json")
    fh = open(report_path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(report.to_json())
            fh.write("\n")
        # a failed table write removes its own tables; the report goes here
        report.write_csv_tables(args.output_dir)
    except BaseException:
        os.unlink(report_path)
        raise
    for e in report.entries:
        print(
            f"simulate: method={e.method} plan={e.plan} "
            f"false_zeros={e.false_zero_pct:.2f}% "
            f"false_nonzeros={e.false_nonzero_pct:.2f}% "
            f"l1_bias={e.l1_bias_active:.4f}"
        )
    if report.failed_replications:
        print(f"simulate: {len(report.failed_replications)} replication(s) failed")
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = load_simulation_spec(args.config, args.set or ())
    rows = timing_benchmark(spec)
    timing_rows_to_csv(rows, args.output)
    for row in rows:
        if row["phase"] == "total":
            print(f"bench: K={row['K']} total={row['seconds']:.2f}s")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censlasso",
        description="Censored adaptive-LASSO estimation with interleaved-group "
        "aggregation for massive survival data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p, default, text):
        p.add_argument("--threads", type=_positive_int, default=default, help=text)

    def add_gamma_and_penalty_mode(p):
        p.add_argument("--gamma", type=float, default=FitConfig.gamma,
                       help="adaptive-weight power")
        p.add_argument("--penalty-mode", default=BicConfig.penalty_mode,
                       choices=PENALTY_MODES)

    def add_fit_flags(p):
        p.add_argument("--data", required=True, help="input CSV (y,delta,x1..xp)")
        p.add_argument("--method", required=True,
                       help="expectile:T | median | quantile:T | "
                            "composite_quantile:J | least_squares")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="fixed penalty level")
        p.add_argument("--bic", action="store_true",
                       help="choose the penalty by the BIC grid scan")
        add_gamma_and_penalty_mode(p)
        p.add_argument("--fit-intercept", action="store_true")

    p_fit = sub.add_parser("fit", help="one adaptive-LASSO fit on a CSV dataset")
    add_fit_flags(p_fit)
    p_fit.add_argument("--output", required=True, help="result JSON path")
    p_fit.set_defaults(func=cmd_fit, needs_lambda_choice=True)

    p_km = sub.add_parser("km", help="censoring survival curve as CSV")
    p_km.add_argument("--data", required=True)
    p_km.add_argument("--output", required=True)
    p_km.set_defaults(func=cmd_km, needs_lambda_choice=False)

    p_tune = sub.add_parser("tune", help="BIC path over the default lambda grid")
    p_tune.add_argument("--data", required=True)
    p_tune.add_argument("--method", required=True)
    add_gamma_and_penalty_mode(p_tune)
    p_tune.add_argument("--output", required=True, help="path CSV")
    p_tune.set_defaults(func=cmd_tune, needs_lambda_choice=False)

    p_agg = sub.add_parser("aggregate", help="interleaved-group aggregated fit")
    add_fit_flags(p_agg)
    p_agg.add_argument("--K", type=int, required=True, help="number of groups")
    p_agg.add_argument("--w", default=AggregationPlan.w,
                       help="vote threshold (integer or 'sqrt')")
    p_agg.add_argument("--km-scope", default=AggregationPlan.km_scope,
                       choices=KM_SCOPES)
    p_agg.add_argument("--output", required=True)
    add_threads(p_agg, 1, "worker processes over groups that are fitted one at a "
                          "time (groups fitted as lockstep stacks stay in this "
                          "process; default 1 = serial)")
    p_agg.set_defaults(func=cmd_aggregate, needs_lambda_choice=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study from a config file")
    p_sim.add_argument("--config", required=True, help="INI configuration")
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
    add_threads(p_sim, os.cpu_count() or 1,
                "worker processes over the replications (default: one per CPU; "
                "1 = fully serial)")
    p_sim.set_defaults(func=cmd_simulate, needs_lambda_choice=False)

    p_bench = sub.add_parser("bench", help="timing benchmark from a config file")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--output", required=True, help="timings CSV")
    p_bench.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_bench.set_defaults(func=cmd_bench, needs_lambda_choice=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_lambda_choice", False):
            _choose_lambda_args(args)
        return args.func(args)
    except CensLassoError as exc:
        error, group = exc, type(exc)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        error, group = exc, InputError
    except (ValueError, KeyError, configparser.Error) as exc:
        error, group = exc, ConfigError
    print(f"censlasso: {group.prefix}: {error}", file=sys.stderr)
    return group.exit_code

if __name__ == "__main__":
    sys.exit(main())

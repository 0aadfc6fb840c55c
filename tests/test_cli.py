import json
import os
import subprocess
import sys

import numpy as np
import pytest

from censlasso import cli, errors, kaplan_meier, simulation, tuning
from censlasso.aggregation import AggregationPlan
from censlasso.cli import main
from censlasso.data import GenerationSpec, generate_dataset, write_csv, write_text
from censlasso.simulation import MethodSpec, SimulationSpec

from helpers import disk_full_writer

CONFIG_TEXT = """\
[generation]
n = 200
p = 4
beta0 = 1,-2
intercept = 0
design_mean = 1
target_censoring_rate = 0.25
seed = 0

[simulation]
replications = 2
methods = expectile
lambda_rule = fixed:1
master_seed = 77
compare_full_data = false

[aggregation]
K = 1,2
w = sqrt
km_scope = per_group

[tuning]
penalty_mode = log_n_over_n

[solvers]
gamma = 1
tol = 1e-8
max_iter = 10000
"""


@pytest.fixture()
def dataset_csv(tmp_path):
    spec = GenerationSpec(n=150, p=3, beta0=(1.0, -2.0, 0.0), seed=5)
    ds = generate_dataset(spec, bound=8.0)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    return str(path)


def test_fit_happy_path(dataset_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--data", dataset_csv, "--method", "quantile:0.37",
        "--lambda", "5.0", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["beta"]) == 3
    assert payload["lambda"] == 5.0
    assert "support" in payload
    assert 0.0 <= payload["duality_gap"] <= 1e-6 * 150  # the LP's certificate
    assert 0.0 <= payload["kkt_residual"] <= 1e-9 * 150  # exact at the LP's vertex
    assert "fit:" in capsys.readouterr().out
    assert main([
        "fit", "--data", dataset_csv, "--method", "expectile:0.37",
        "--lambda", "5.0", "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["duality_gap"] is None
    assert 0.0 <= payload["kkt_residual"] <= 1e-6 * 150


def test_fit_missing_file_names_path(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--data", str(tmp_path / "absent.csv"), "--method", "median",
        "--lambda", "1.0", "--output", str(out),
    ])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


def test_fit_lambda_and_bic_conflict(dataset_csv, tmp_path):
    code = main([
        "fit", "--data", dataset_csv, "--method", "median",
        "--lambda", "1.0", "--bic", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 4


def test_fit_requires_lambda_choice(dataset_csv, tmp_path):
    code = main([
        "fit", "--data", dataset_csv, "--method", "median",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 4


def test_fit_auto_index_method_rejected(dataset_csv, tmp_path):
    code = main([
        "fit", "--data", dataset_csv, "--method", "quantile",
        "--lambda", "1.0", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 4


def test_km_hand_example(tmp_path):
    data = tmp_path / "km.csv"
    data.write_text("y,delta,x1\n1,1,0.0\n2,0,0.0\n3,1,0.0\n")
    out = tmp_path / "curve.csv"
    assert main(["km", "--data", str(data), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,survival"
    assert lines[1] == "0,1"
    assert lines[2] == "2,0.5"


def test_km_nan_covariate_is_input_error(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text("y,delta,x1\n1.5,1,0.25\n2.5,0,nan\n0.5,1,1.0\n")
    code = main(["km", "--data", str(data), "--output", str(tmp_path / "curve.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert f"{data}:3:" in err


# exit code and message prefix of every exception class in errors.py
EXIT_CODES = {
    "CensLassoError": (3, "error"),
    "InputError": (2, "input error"),
    "MissingColumn": (2, "input error"),
    "NonBinaryDelta": (2, "input error"),
    "NonPositiveTime": (2, "input error"),
    "RaggedRow": (2, "input error"),
    "NonFiniteCovariate": (2, "input error"),
    "EstimationError": (3, "solver error"),
    "NoConvergence": (3, "solver error"),
    "DegenerateWeights": (3, "solver error"),
    "DegenerateSample": (3, "solver error"),
    "SolverError": (3, "solver error"),
    "ZeroNormalizer": (3, "solver error"),
    "EmptyActiveSet": (3, "solver error"),
    "FullActiveSet": (3, "solver error"),
    "TooFewSamples": (3, "solver error"),
    "ConfigError": (4, "configuration error"),
    "DimensionMismatch": (4, "configuration error"),
    "InvalidK": (4, "configuration error"),
}


def test_exit_codes_cover_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == set(EXIT_CODES)
    assert cli.ConfigError is errors.ConfigError


BUILTIN_EXIT_CODES = {
    FileNotFoundError: (2, "input error"),
    IsADirectoryError: (2, "input error"),
    PermissionError: (2, "input error"),
    ValueError: (4, "configuration error"),
    KeyError: (4, "configuration error"),
}


@pytest.mark.parametrize("cls, expected", [
    *(pytest.param(getattr(errors, name), EXIT_CODES[name], id=name)
      for name in sorted(EXIT_CODES)),
    *(pytest.param(cls, code, id=cls.__name__)
      for cls, code in BUILTIN_EXIT_CODES.items()),
])
def test_error_class_exit_code(cls, expected, monkeypatch, tmp_path, capsys):
    exc = cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_km", fail)
    code = main(["km", "--data", "d.csv", "--output", str(tmp_path / "o")])
    assert code == expected[0]
    assert capsys.readouterr().err == f"censlasso: {expected[1]}: {exc}\n"


@pytest.mark.parametrize("command", [
    ["fit", "--method", "median", "--lambda", "1.0", "--data", "d.csv"],
    ["km", "--data", "d.csv"],
    ["tune", "--method", "median", "--data", "d.csv"],
    ["bench", "--config", "study.ini"],
])
def test_serial_commands_take_no_threads_flag(command, tmp_path, capsys):
    # argparse rejects the flag before any input is read
    argv = command + ["--output", str(tmp_path / "o"), "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "study.ini", "--output-dir", "out"],
    ["aggregate", "--data", "d.csv", "--method", "median", "--lambda", "1.0", "--K", "2",
     "--output", "o"],
], ids=["simulate", "aggregate"])
@pytest.mark.parametrize("threads", ["0", "-3", "-1"])
def test_threads_below_one_is_rejected(command, threads, capsys):
    # argparse rejects the value, and names the flag, before any input is read
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", threads])
    assert exc.value.code == 2
    assert "argument --threads: must be a positive integer" in capsys.readouterr().err


def test_import_leaves_scipy_optimize_and_sparse_unloaded():
    # a fresh interpreter pays ~0.3 s for scipy.optimize and scipy.sparse,
    # which no fit needs; scipy.stats is loaded only by the study report
    code = ("import sys, censlasso.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'sparse'], "
            "['scipy', 'stats'])))")
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_tune_emits_twenty_row_path(dataset_csv, tmp_path):
    out = tmp_path / "path.csv"
    code = main([
        "tune", "--data", dataset_csv, "--method", "expectile:0.3",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21
    assert lines[0] == "lambda,score,support_size"


def test_aggregate_k1_matches_fit(dataset_csv, tmp_path):
    fit_out = tmp_path / "fit.json"
    agg_out = tmp_path / "agg.json"
    assert main([
        "fit", "--data", dataset_csv, "--method", "expectile:0.3",
        "--lambda", "6.0", "--output", str(fit_out),
    ]) == 0
    assert main([
        "aggregate", "--data", dataset_csv, "--method", "expectile:0.3",
        "--lambda", "6.0", "--K", "1", "--w", "1", "--output", str(agg_out),
    ]) == 0
    fit_payload = json.loads(fit_out.read_text())
    agg_beta = json.loads(agg_out.read_text())["beta_check"]
    assert np.allclose(fit_payload["beta"], agg_beta, atol=0)
    assert fit_payload["duality_gap"] is None  # no dual on the expectile route


def test_aggregate_defaults_to_serial_group_fits(dataset_csv, tmp_path, monkeypatch):
    from censlasso import aggregation

    argv = ["aggregate", "--data", dataset_csv, "--method", "median", "--lambda", "4.0",
            "--K", "3", "--w", "2"]
    threaded = tmp_path / "threaded.json"
    assert main(argv + ["--threads", "2", "--output", str(threaded)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("the default aggregate run used the thread pool")

    monkeypatch.setattr(aggregation, "ThreadPoolExecutor", no_pool)
    serial = tmp_path / "serial.json"
    assert main(argv + ["--output", str(serial)]) == 0
    assert serial.read_text() == threaded.read_text()


def test_simulate_from_config(tmp_path, capsys):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outdir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(outdir)])
    assert code == 0
    assert (outdir / "report.json").exists()
    metrics = (outdir / "selection_metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("method,plan,")
    assert len(metrics) == 3  # header + expectile x {K=1, K=2}
    out = capsys.readouterr().out
    assert out.count("simulate:") >= 2


def test_simulate_rerun_identical_outputs(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out2)]) == 0
    for name in ("report.json", "selection_metrics.csv", "deviations.csv",
                 "normality.csv", "bic_minimizers.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_simulate_every_replication_failing_is_solver_error(tmp_path, capsys):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outdir = tmp_path / "out"
    code = main([
        "simulate", "--config", str(cfg), "--output-dir", str(outdir),
        "--threads", "1", "--set", "simulation.methods=expectile:0.4",
        "--set", "aggregation.K=1", "--set", "solvers.max_iter=1",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("censlasso: solver error: all 2 replications failed; "
                          "replication 0: NoConvergence")
    assert not (outdir / "report.json").exists()


def test_simulate_failed_write_leaves_no_partial_outputs(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outdir = tmp_path / "out"
    (outdir / "timings.csv").mkdir(parents=True)
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(outdir),
                 "--threads", "1"])
    assert code == 2
    assert sorted(os.listdir(outdir)) == ["timings.csv"]


@pytest.mark.parametrize("writer, argv", [
    (kaplan_meier, ["km"]),
    (tuning, ["tune", "--method", "expectile:0.3"]),
    (cli, ["fit", "--method", "median", "--lambda", "5"]),
    (cli, ["aggregate", "--method", "median", "--lambda", "5", "--K", "2"]),
    (simulation, ["bench"]),
    (cli, ["simulate"]),
], ids=["km", "tune", "fit", "aggregate", "bench", "simulate"])
def test_a_failed_write_leaves_no_output(writer, argv, dataset_csv, tmp_path, monkeypatch,
                                         capsys):
    # the write fails after its first chunk of text: what it wrote is removed
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    if argv[0] in ("simulate", "bench"):
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + ["--data", dataset_csv]
    argv += ["--output-dir", str(out)] if argv[0] == "simulate" else ["--output", str(out)]
    monkeypatch.setattr(writer, "write_text", disk_full_writer(write_text))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "censlasso: input error: " in err and "No space left on device" in err
    assert not out.exists() or os.listdir(out) == []


def test_output_under_a_regular_file_exits_2(dataset_csv, capsys):
    # NotADirectoryError, like every OSError, is an input error
    out = os.path.join(dataset_csv, "km.csv")
    assert main(["km", "--data", dataset_csv, "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("censlasso: input error: ") and "Not a directory" in err


def test_simulate_invalid_replications_exits_4(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    code = main([
        "simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o"),
        "--set", "simulation.replications=0",
    ])
    assert code == 4


@pytest.mark.parametrize("override, label", [
    ("aggregation.K=2,2", "plan K=2,w=1"),
    ("simulation.methods=expectile,median,expectile", "method expectile"),
], ids=["plan", "method"])
def test_simulate_repeated_label_is_config_error(override, label, tmp_path, capsys):
    # results are keyed by label: a repeated plan or method would be fitted
    # twice and reported as two identical rows
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outdir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(outdir),
                 "--threads", "1", "--set", override])
    assert code == 4
    assert capsys.readouterr().err == (
        f"censlasso: configuration error: the study lists {label} more than once\n")
    assert not outdir.exists()


def test_simulate_missing_config_exits_2(tmp_path):
    code = main([
        "simulate", "--config", str(tmp_path / "no.ini"),
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("text, code, prefix", [
    (CONFIG_TEXT.replace("[generation]\n", "", 1), 4, "configuration error"),
    (CONFIG_TEXT.replace("p = 4\n", "p = 4\np = 5\n"), 4, "configuration error"),
    (CONFIG_TEXT.replace("beta0 = 1,-2", "beta0 = 1,%"), 4, "configuration error"),
    (None, 2, "input error"),  # a directory, not a file
    (b"# caf\xe9\n" + CONFIG_TEXT.encode(), 4, "configuration error"),
], ids=["no-section-header", "repeated-key", "bad-interpolation", "directory", "not-utf8"])
def test_malformed_config_exit_code(command, text, code, prefix, tmp_path, capsys):
    cfg = tmp_path / "study.ini"
    if text is None:
        cfg.mkdir()
    elif isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    out = tmp_path / "out"
    target = ["--output-dir" if command == "simulate" else "--output", str(out)]
    assert main([command, "--config", str(cfg)] + target) == code
    named = f"{cfg}: not UTF-8 text (" if isinstance(text, bytes) else ""
    assert capsys.readouterr().err.startswith(f"censlasso: {prefix}: {named}")
    assert not out.exists()


def test_bench_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "timings.csv"
    code = main(["bench", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,phase,seconds"
    assert "bench: K=1" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["fit", "--help"],
    ["km", "--help"],
    ["tune", "--help"],
    ["aggregate", "--help"],
    ["simulate", "--help"],
    ["bench", "--help"],
    ["--help"],
])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_set_override_wins_over_config(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out1)]) == 0
    assert main([
        "simulate", "--config", str(cfg), "--output-dir", str(out2),
        "--set", "simulation.master_seed=12345",
    ]) == 0
    assert (out1 / "report.json").read_text() != (out2 / "report.json").read_text()


@pytest.mark.parametrize("setting", [
    ["--lambda", "nan"], ["--lambda", "inf"],
    ["--lambda", "1.0", "--gamma", "nan"], ["--lambda", "1.0", "--gamma", "inf"],
], ids=["lambda-nan", "lambda-inf", "gamma-nan", "gamma-inf"])
def test_fit_non_finite_setting_is_config_error(setting, dataset_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", dataset_csv, "--method", "median",
                 "--output", str(out)] + setting)
    assert code == 4
    assert capsys.readouterr().err.startswith("censlasso: configuration error: ")
    assert not out.exists()


def _simulate_before_any_replication(tmp_path, monkeypatch, *overrides):
    """Exit code of a serial simulate that must fail before its first replication."""
    from censlasso import simulation

    def no_replication(args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "_worker", no_replication)
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outdir = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--output-dir", str(outdir), "--threads", "1"]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv)
    assert not (outdir / "report.json").exists()
    return code


@pytest.mark.parametrize("override", [
    "solvers.tol=nan", "solvers.tol=inf", "solvers.gamma=nan", "solvers.gamma=inf",
])
def test_simulate_non_finite_solver_setting_is_config_error(override, tmp_path,
                                                            monkeypatch, capsys):
    assert _simulate_before_any_replication(tmp_path, monkeypatch, override) == 4
    setting = override.split(".")[1].split("=")[0]
    assert capsys.readouterr().err.startswith(
        f"censlasso: configuration error: {setting} must be finite")


@pytest.mark.parametrize("override, message", [
    ("generation.beta0=0", "a study scores selection, so beta0 needs both a zero "
                           "and a nonzero coordinate"),
    ("generation.beta0=1,-2,3,4", "a study scores selection, so beta0 needs both a zero "
                                  "and a nonzero coordinate"),
    ("simulation.methods= ", "need at least one method"),
], ids=["no-active", "all-active", "no-methods"])
def test_simulate_unscorable_study_is_config_error(override, message, tmp_path,
                                                   monkeypatch, capsys):
    assert _simulate_before_any_replication(tmp_path, monkeypatch, override) == 4
    assert capsys.readouterr().err == f"censlasso: configuration error: {message}\n"


def test_bench_times_a_design_without_zero_coordinates(tmp_path):
    # bench scores no selection, so any beta0 will do
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "timings.csv"
    assert main(["bench", "--config", str(cfg), "--output", str(out),
                 "--set", "generation.beta0=1,-2,3,4", "--set", "aggregation.K=1"]) == 0
    assert out.read_text().splitlines()[0] == "K,phase,seconds"


def test_generation_seed_is_not_read(tmp_path):
    # every replication is seeded from master_seed alone
    cfg = tmp_path / "study.ini"
    cfg.write_text(CONFIG_TEXT)
    outputs = []
    for seed in ("0", "5"):
        out = tmp_path / f"seed{seed}"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out),
                     "--threads", "1", "--set", f"generation.seed={seed}"]) == 0
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))
                        if name != "timings.csv"})
    assert outputs[0] == outputs[1]


def test_study_config_may_start_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text(CONFIG_TEXT, encoding="utf-8")
    marked.write_text(CONFIG_TEXT, encoding="utf-8-sig")
    assert cli.load_simulation_spec(marked) == cli.load_simulation_spec(plain)


def test_study_keys_left_out_take_the_defaults_of_their_types(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text("[generation]\nn = 100\np = 3\nbeta0 = 1\n"
                   "[simulation]\nreplications = 2\nmethods = median\n")
    assert cli.load_simulation_spec(cfg) == SimulationSpec(
        M=2,
        generation=GenerationSpec(n=100, p=3, beta0=(1.0, 0.0, 0.0)),
        methods=(MethodSpec("median"),),
        plans=(AggregationPlan(K=1),),
    )


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("text, overrides, named", [
    (CONFIG_TEXT, ["solvers.gama=0.5"], "solvers.gama"),
    (CONFIG_TEXT, ["simulaton.replications=9"], "simulaton.replications"),
    (CONFIG_TEXT.replace("w = sqrt", "w = sqrt\nkm_scop = global"), [],
     "aggregation.km_scop"),
], ids=["override-key", "override-section", "file-key"])
def test_unknown_study_key_is_config_error(command, text, overrides, named, tmp_path, capsys):
    # a misspelt key would otherwise leave its setting at the default
    cfg = tmp_path / "study.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg),
            "--output-dir" if command == "simulate" else "--output", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"censlasso: configuration error: unknown config key {named}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, key", cli._REQUIRED)
def test_required_study_key_left_out_is_config_error(section, key, tmp_path):
    # the required keys have no default of their type to fall back on
    lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(f"{key} =")]
    cfg = tmp_path / "study.ini"
    cfg.write_text("\n".join(lines) + "\n")
    with pytest.raises(errors.ConfigError, match=rf"missing config key \[{section}\] {key}$"):
        cli.load_simulation_spec(cfg)


def test_every_study_key_is_accepted(tmp_path):
    # every key set, [generation] seed included, which is accepted and not
    # read; K is matched whatever its case, as before
    text = CONFIG_TEXT.replace("seed = 0\n", "seed = 0\nerror_family = standard_gumbel\n")
    assert all(f"\n{key} =" in text for keys in cli._STUDY_KEYS.values() for key in keys)
    cfg = tmp_path / "study.ini"
    cfg.write_text(text)
    spec = cli.load_simulation_spec(cfg)
    assert cli.load_simulation_spec(cfg, ["generation.seed=5"]) == spec
    assert cli.load_simulation_spec(cfg, ["aggregation.k=1,2"]) == spec


@pytest.mark.parametrize("text, w", [("sqrt", "sqrt_K"), (" sqrt_K ", "sqrt_K"), ("2", 2)])
def test_vote_rule_parser(text, w):
    assert cli._parse_vote_rule(text) == w

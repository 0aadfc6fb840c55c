"""Benchmark entry point.

    python3 perfbench/run.py --workload massive-fixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, each in a fresh process

A run sets up its workload, repeats whole rounds of the workload's
operations until --seconds have passed, checks the outputs and prints one
JSON object as the last line of standard output: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The package is
imported from the checkout's src/ directory.
"""

import os

# one BLAS thread everywhere: the workloads choose their own parallelism
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up sample
    return parser.parse_args(argv)


def setup_sample(workload, seed) -> float:
    """Wall time of one set-up in a fresh interpreter, import included."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def untraced_run(wl, seed, seconds, workdir):
    """Set up, run rounds for `seconds`, check: the end-to-end metrics."""
    setup_s = statistics.median(setup_sample(wl.name, seed) for _ in range(SETUP_SAMPLES))
    state = wl.setup(seed, workdir)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(state))
    problems = wl.check(state, rounds)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + state.get("worker_rss_kb", 0)
    return result(rounds, problems, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r["timings"]["wall_s"] for r in rounds),
                   "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    })


def traced_run(wl, seed, seconds, workdir):
    """Per-layer metrics of one set-up plus one average traced round.

    Untraced and traced rounds alternate, so the tracing overhead is the
    median traced round minus the median untraced round.  Returns the result
    object and the tracer holding the spans.
    """
    from spans import PER_LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    root = tracer.open("bench.setup")
    state = wl.setup(seed, workdir)
    tracer.close(root)
    tracer.uninstall()

    plain, traced, roots = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(wl.run_round(state, single_process=True))
        tracer.install()
        roots.append(tracer.open("bench.round"))
        try:
            traced.append(wl.run_round(state, single_process=True))
        finally:
            tracer.close(roots[-1])
            tracer.uninstall()
    problems = wl.check(state, plain + traced)

    values = layer_metrics(tracer, root, roots)
    values.update(wl.stages(plain))
    values["trace.overhead_s"] = (statistics.median(r["timings"]["wall_s"] for r in traced)
                                  - statistics.median(r["timings"]["wall_s"] for r in plain))
    return result(plain + traced, problems,
                  {k: {"value": values[k], "unit": layer_unit(k)} for k in PER_LAYER_METRICS}
                  ), tracer


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("max_weight"):
        return "weight"
    return "count"


def result(rounds, problems, metrics):
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "censlasso" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC}/censlasso", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload is None:
        # every workload in a fresh process of its own
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)

    wl = WORKLOADS[args.workload]()
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{stem}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            wl.setup(args.seed, str(workdir))
            return 0
        if args.trace:
            res, tracer = traced_run(wl, args.seed, args.seconds, str(workdir))
            tracer.write_jsonl(OUT / f"trace-{stem}.jsonl")
        else:
            res = untraced_run(wl, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(res)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""nilsurf benchmark: end-to-end and per-layer metrics for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.py; metric names, units and
directions in BENCHMARK.json.  With --trace 0 the run reports the
end-to-end metrics: wall_rel (the median over operations of each
operation's seconds over those of a fixed reference job timed either side
of it), setup_s (seconds for a fresh interpreter to import nilsurf.cli,
scaled to a fixed machine speed by a reference import), peak_rss_mb (peak
resident memory of the process that ran the operations) and
residual_ratio_max (worst checked residual over its threshold).  With
--trace 1 it reports the per-layer metrics of a traced pass and the
tracing overhead.  Every operation's outputs are checked; the last stdout
line is the JSON result, and the exit code is nonzero if any check failed.

The program is imported from src/ of the checkout this file sits in.  The
operations run in a separate process per workload, so memory and
interpreter state do not carry over between workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PAIRS = 5
PROGRAM_IMPORT = "import nilsurf.cli"
#: The libraries nilsurf.cli imports, and nothing of nilsurf.
REFERENCE_IMPORT = (
    "import argparse, csv, dataclasses, json, numpy, numpy.polynomial, "
    "scipy.sparse, scipy.sparse.linalg"
)
#: Median seconds of REFERENCE_IMPORT on the machine the bounds were set on.
REFERENCE_IMPORT_S = 0.35
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Added to the worker's --seconds (twice that with tracing) for its start,
# one operation of overrun and the output checks.
WORKER_MARGIN_S = 120


def program_env():
    """Environment for every process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _import_seconds(statement, env):
    """Seconds `statement` takes in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import time; t = time.perf_counter(); {statement}; "
            "print(time.perf_counter() - t)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def measure_setup(env):
    """Seconds to import nilsurf.cli in a fresh interpreter, at a fixed speed.

    Imports of nilsurf.cli alternate with imports of the libraries it builds
    on, each in a fresh interpreter: R P R P ... P R.  Each program import
    is divided by the mean of the reference imports either side of it, and
    the median ratio is scaled by REFERENCE_IMPORT_S.  The ratio cancels
    the machine's changes of speed; work the program adds at import raises
    it.  One untimed import of each comes first, so compiling bytecode is
    not counted.  Returns (setup_s, median seconds of the program imports).
    """
    _import_seconds(PROGRAM_IMPORT, env)
    refs = [_import_seconds(REFERENCE_IMPORT, env)]
    times, ratios = [], []
    for _ in range(SETUP_PAIRS):
        times.append(_import_seconds(PROGRAM_IMPORT, env))
        refs.append(_import_seconds(REFERENCE_IMPORT, env))
        ratios.append(times[-1] / statistics.fmean(refs[-2:]))
    return statistics.median(ratios) * REFERENCE_IMPORT_S, statistics.median(times)


def run_worker(plan_path, seconds, trace, spans_path, env):
    timeout = (2 if trace else 1) * seconds + WORKER_MARGIN_S
    try:
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "worker.py"),
                plan_path,
                str(seconds),
                str(trace),
                spans_path,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker did not end within {timeout:g} s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _describe(walls):
    if len(walls) < 2:
        return f"{walls} s"
    q1, median, q3 = statistics.quantiles(walls, n=4)
    return f"median {median:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n {len(walls)}"


def _relative(ops):
    """Median of each operation's wall time over its reference job time."""
    return statistics.median(ops["ratios"]) if ops["ratios"] else float("nan")


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nilsurf", "cli.py")):
        sys.stderr.write(f"no nilsurf sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    env = program_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    sys.path.insert(0, SRC)
    from workloads import prepare

    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s, import_s = (None, None) if args.trace else measure_setup(env)
        plan = prepare(args.workload, args.seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        spans_path = os.path.join(base, f"spans-{args.workload}-{args.seed}.json")
        result = run_worker(plan_path, args.seconds, args.trace, spans_path, env)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = result["untraced"]
    traced = result.get("traced", {"walls": [], "problems": []})
    problems = untraced["problems"] + traced["problems"]
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p:
            sys.stderr.write(f"check failed: {line}\n")
    trace_problems = result.get("trace_problems", [])
    for line in trace_problems:
        sys.stderr.write(f"trace check failed: {line}\n")
    correct = failed == 0 and not trace_problems and bool(untraced["walls"])

    walls = untraced["walls"] or [float("nan")]
    if args.trace:
        values = dict(result["layers"])
        # Each pass relative to its own reference jobs, so that a change of
        # machine speed between the passes cancels.
        ref = statistics.median(untraced["refs"])
        values["trace.overhead_s"] = ref * (
            _relative(traced) - _relative(untraced)
        )
        wanted = spec["per_layer"]
        print(f"untraced wall_s: {_describe(walls)}")
        print(f"traced wall_s: {_describe(traced['walls'])}")
    else:
        accuracy = untraced["accuracy"]
        values = {
            "wall_rel": _relative(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": untraced["peak_rss_mb"],
            "residual_ratio_max": accuracy.get("residual_ratio_max"),
        }
        wanted = spec["end_to_end"]
        print(f"wall_s: {_describe(walls)}")
        print(f"import_s: {import_s:.4f} s (median, unscaled)")
        print(f"error_rate: {failed / attempted:.4f} ({failed}/{attempted} operations)")
        if "solution_err" in accuracy:
            print(f"solution_err: {accuracy['solution_err']:.6e} (max |u - log rho_exact|)")
    metrics = {
        m["name"]: {"value": _finite_or_none(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

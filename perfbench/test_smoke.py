"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Each workload is prepared at its tiny size and run through the same
operation loop, output checks and tracer the benchmark uses.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nilsurf import cli  # noqa: E402
from tracer import COUNTS, LAYERS, Tracer  # noqa: E402
from worker import MIN_OPS, run_ops  # noqa: E402
from workloads import WORKLOADS, check_outputs, prepare  # noqa: E402

LAYERS_RUN = {
    "flagship_solved": {"config", "pipeline", "pde", "potentials", "frame",
                        "surface", "residuals", "outputs"},
    "family_sweep": {"config", "pipeline", "potentials", "frame", "surface",
                     "residuals", "outputs"},
    "check_csv": {"pipeline", "residuals", "outputs"},
    "liouville_solve": {"config", "pipeline", "pde", "potentials", "outputs"},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_checks_and_traces(name, tmp_path):
    plan = prepare(name, 3, str(tmp_path), tiny=True)
    untraced = run_ops(cli, plan, seconds=0.0)
    assert len(untraced["walls"]) == MIN_OPS
    assert untraced["problems"] == [[]] * MIN_OPS
    assert 0.0 < untraced["accuracy"]["residual_ratio_max"] <= 1.0
    assert untraced["peak_rss_mb"] > 0.0

    tracer = Tracer()
    with tracer.installed():
        traced = run_ops(cli, plan, seconds=0.0, tracer=tracer)
    assert traced["problems"] == [[]] * MIN_OPS
    assert not hasattr(cli.load_config, "__wrapped__")  # wrappers removed
    metrics, trace_problems = tracer.summary()
    assert trace_problems == []
    ran = {layer for layer in LAYERS if metrics[f"{layer}.self_s"] > 0.0}
    assert ran == LAYERS_RUN[name]
    assert set(COUNTS) <= set(metrics)
    tracer.write(str(tmp_path / "spans.json"))


def test_failed_operation_is_reported(tmp_path):
    plan = prepare("family_sweep", 0, str(tmp_path), tiny=True)
    problems, _ = check_outputs(plan, 4)
    assert problems == ["exit code 4"]


def test_seed_changes_inputs_but_not_work(tmp_path):
    traced = []
    for seed in (1, 2):
        plan = prepare("family_sweep", seed, str(tmp_path / str(seed)), tiny=True)
        tracer = Tracer()
        with tracer.installed():
            run_ops(cli, plan, seconds=0.0, tracer=tracer)
        traced.append(tracer.summary()[0])
    assert traced[0]["frame.rk4_steps"] == traced[1]["frame.rk4_steps"]
    assert traced[0]["frame.connection_points"] == traced[1]["frame.connection_points"]


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

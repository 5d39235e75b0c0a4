"""Measure one workload in this process: run operations, check each, report JSON.

Usage: python3 perfbench/worker.py PLAN_JSON SECONDS TRACE SPANS_PATH

Runs by itself so that its peak resident memory belongs to one workload.
Each operation is one ``nilsurf.cli.main(argv)`` call with logging
silenced, timed with tracing off.  With TRACE = 1 a second pass repeats
the operations under the tracer.  The last stdout line is a JSON object.
"""

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from workloads import check_outputs

MIN_OPS = 2


def _silent(*_args, **_kwargs):
    pass


def reference_march():
    """Fixed work shaped like the frame march, for `wall_rel`.

    A Python loop of batched 2x2 complex products on a row of 127 nodes.
    """
    n = 127
    z = np.linspace(-0.5, 0.5, n) + 0.5j
    m = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    w = np.empty_like(m)
    for k in range(1000):
        w[:, 0, 0] = np.exp(1j * z * k / 1000)
        w[:, 1, 1] = np.conj(w[:, 0, 0])
        w[:, 0, 1] = 0.25j * np.sqrt(np.abs(z) + 1.0)
        w[:, 1, 0] = -w[:, 0, 1]
        m = m @ w
        m /= np.abs(m).max()


def reference_solve():
    """Fixed work shaped like the density solve, for `wall_rel`.

    200 CG iterations on a 5-point Laplacian with 191^2 unknowns, the
    interior of the solver grids of both solve workloads, so the working
    set sits in the same cache level.
    """
    n = 191
    ones = np.ones(n)
    t = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
    a = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n)) + 0.01 * sp.eye(n * n)).tocsr()
    cg(a, np.linspace(0.0, 1.0, n * n), rtol=1e-30, atol=0.0, maxiter=200)


#: The reference job of each workload is shaped like its dominant layer.
#: It is timed before and after every operation, so it sees the same slow
#: and fast periods of a shared machine as the operation; the program
#: cannot change its time.
REFERENCE_JOBS = {
    "flagship_solved": reference_solve,
    "family_sweep": reference_march,
    "check_csv": reference_march,
    "liouville_solve": reference_solve,
}


def _time_reference(job):
    gc.collect()
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


def run_ops(cli, plan, seconds, tracer=None):
    """Run operations for `seconds` (at least MIN_OPS); check every one.

    Returns a dict: "walls", the seconds of each completed operation;
    "refs", the seconds of each reference job, one before the first
    operation and one after each; "ratios", each completed operation's
    wall over the mean of the reference jobs either side of it;
    "problems", one list per operation attempted; "accuracy", the worst
    figures over the operations; "peak_rss_mb", the process's peak
    resident memory after MIN_OPS operations, so that it does not depend
    on how many operations fit in `seconds`.
    """
    reference = REFERENCE_JOBS[plan["workload"]]
    walls, ratios, problems, accuracy, peak_rss_mb = [], [], [], {}, None
    refs = [_time_reference(reference)]
    start = time.perf_counter()
    while len(problems) < MIN_OPS or time.perf_counter() - start < seconds:
        shutil.rmtree(plan["outdir"])
        os.makedirs(plan["outdir"])
        gc.collect()
        wall = None
        t0 = time.perf_counter()
        try:
            with tracer.operation() if tracer else contextlib.nullcontext():
                code = cli.main(plan["argv"], log=_silent)
            wall = time.perf_counter() - t0
            op_problems, op_accuracy = check_outputs(plan, code)
            for key, value in op_accuracy.items():
                accuracy[key] = max(accuracy.get(key, value), value)
        except Exception:  # a crash or unreadable output fails the operation
            op_problems = [traceback.format_exc(limit=3)]
        problems.append(op_problems)
        refs.append(_time_reference(reference))
        if wall is not None:
            walls.append(wall)
            ratios.append(wall / statistics.fmean(refs[-2:]))
        if len(problems) == MIN_OPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "walls": walls,
        "refs": refs,
        "ratios": ratios,
        "problems": problems,
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv):
    plan_path, seconds, trace, spans_path = argv
    seconds, trace = float(seconds), trace == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    from nilsurf import cli

    result = {"untraced": run_ops(cli, plan, seconds)}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            result["traced"] = run_ops(cli, plan, seconds, tracer)
        result["layers"], result["trace_problems"] = tracer.summary()
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

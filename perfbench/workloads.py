"""Workload definitions: inputs from a seed, the CLI call, and the output check.

Every operation of a workload is one in-process call of
``nilsurf.cli.main(argv)`` on the same inputs.  ``prepare`` writes those
inputs (a run config, and for ``check_csv`` a surface CSV) into a work
directory and returns a plan; ``check_outputs`` verifies what one
operation wrote.  The seed only changes inputs in ways that leave each
operation's work unchanged, so run-to-run differences measure the
machine, not the input.

At tiny size (``SIZES``), for the smoke test, each workload runs in well
under a second.
"""

import json
import math
import os
import random

import numpy as np

#: Nodes per axis of each workload at full size (what the benchmark
#: measures) and at tiny size (the smoke test).  For flagship_solved it is
#: the surface grid, whose solver grid is 4n - 3; for liouville_solve it is
#: the solver grid.
SIZES = {
    "flagship_solved": (49, 9),
    "family_sweep": (129, 17),
    "check_csv": (257, 17),
    "liouville_solve": (193, 17),
}
WORKLOADS = tuple(SIZES)

#: Criterion 4 of the acceptance suite: max |u - log rho_exact| <= 5e-4 at
#: h = 1.2/128, second order in h.
LIOUVILLE_ERR_AT_H0 = 5e-4
LIOUVILLE_H0 = 1.2 / 128
LIOUVILLE_HALF_WIDTH = 0.6

UNIT_SQUARE = {"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5}

#: Width of the seed's jitter on t (and on alpha/2).  The residual maxima
#: vary with t by up to 50% over a period, but by about 1% over this
#: width, so residual_ratio_max stays comparable across seeds.
T_JITTER = 0.1


def _grid(box, n):
    return dict(box, nx=n, ny=n)


def _outputs(outdir):
    return {
        "mesh": os.path.join(outdir, "surface_t{t}.obj"),
        "report": os.path.join(outdir, "report.json"),
        "solution": os.path.join(outdir, "solution.csv"),
    }


def _write_config(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def liouville_err_bound(h):
    """Criterion-4 accuracy law scaled to solver spacing h."""
    return LIOUVILLE_ERR_AT_H0 * (h / LIOUVILLE_H0) ** 2


def prepare(name, seed, workdir, tiny=False):
    """Write the inputs of workload `name` for `seed` under workdir.

    Returns a JSON-ready plan: the CLI argv, the output directory the
    operation writes into, and what check_outputs expects there.
    """
    rng = random.Random(seed)
    n = SIZES[name][tiny]
    indir = os.path.join(workdir, "input")
    outdir = os.path.join(workdir, "out")
    os.makedirs(indir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    config_path = os.path.join(indir, "run.json")
    plan = {
        "workload": name,
        "seed": seed,
        "outdir": outdir,
        "n": n,
    }

    if name == "flagship_solved":
        # Q0 = e^{i alpha} z/4: the PDE sees only |Q0|^2, so alpha leaves
        # the solve unchanged; it acts on the surfaces as a shift of t by
        # alpha/2.
        alpha = rng.uniform(0.0, 2.0 * T_JITTER)
        t_values = [0.0, math.pi / 4, math.pi / 2]
        _write_config(
            {
                "potential": {
                    "q0_coefficients": [
                        0.0,
                        [0.25 * math.cos(alpha), 0.25 * math.sin(alpha)],
                    ],
                    "rho0": {"source": "solved", "bc": 0.0},
                },
                "domain": _grid(UNIT_SQUARE, n),
                "t_values": t_values,
                "outputs": _outputs(outdir),
            },
            config_path,
        )
        plan.update(argv=["generate", config_path], surfaces=len(t_values))
    elif name == "family_sweep":
        # March cost does not depend on t; one t near each of 0, pi/4,
        # pi/2 and 3pi/4.
        t_values = [k * math.pi / 4 + rng.uniform(0.0, T_JITTER) for k in range(4)]
        _write_config(
            {
                "potential": {
                    "q0_coefficients": [0.25],
                    "rho0": {"source": "constant", "value": 1.0},
                },
                "domain": _grid(UNIT_SQUARE, n),
                "t_values": t_values,
                "outputs": _outputs(outdir),
            },
            config_path,
        )
        plan.update(argv=["generate", config_path], surfaces=len(t_values))
    elif name == "check_csv":
        csv_path = os.path.join(indir, "surface.csv")
        write_shuffled_surface_csv(rng, n, csv_path)
        report = os.path.join(outdir, "check.json")
        plan.update(argv=["check", csv_path, "--report", report])
    elif name == "liouville_solve":
        # Fixed inputs: Q0 = 0 with closed-form boundary data has nothing
        # a seed could vary without changing the solve.
        box = {
            "xmin": -LIOUVILLE_HALF_WIDTH,
            "xmax": LIOUVILLE_HALF_WIDTH,
            "ymin": -LIOUVILLE_HALF_WIDTH,
            "ymax": LIOUVILLE_HALF_WIDTH,
        }
        _write_config(
            {
                "potential": {
                    "q0_coefficients": [0.0],
                    "rho0": {
                        "source": "solved",
                        "bc": "liouville",
                        "solver_domain": _grid(box, n),
                    },
                },
                "domain": _grid(box, (n + 1) // 2),
                "outputs": _outputs(outdir),
            },
            config_path,
        )
        plan.update(argv=["solve-gauss", config_path])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan


def write_shuffled_surface_csv(rng, n, path):
    """Generate an n x n surface at a seed-drawn t near pi/4; shuffle its rows.

    The surface is the constant-density member rho0 = 1, Q0 = 1/4 on the
    unit square; `check` accepts rows in any order.
    """
    from nilsurf.outputs import write_surface_csv
    from nilsurf.potentials import Potential
    from nilsurf.surface import generate_surface

    t = math.pi / 4 + rng.uniform(-T_JITTER, T_JITTER)
    axis = np.linspace(-0.5, 0.5, n)
    surface = generate_surface(Potential.constant(1.0, (0.25,)), axis, axis, t)
    write_surface_csv(surface, path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        rows = fh.readlines()
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(rows)


def _residual_ratio(verification, thresholds):
    ratios = [
        value / thresholds[key]
        for key, value in verification["maxima"].items()
        if value is not None
    ]
    return max(ratios)


def _count_obj_elements(path):
    with open(path, "rb") as fh:
        data = b"\n" + fh.read()
    return data.count(b"\nv "), data.count(b"\nf ")


def check_outputs(plan, code):
    """Check what one operation wrote; returns (problems, accuracy).

    problems is a list of strings (empty when the operation passed);
    accuracy holds residual_ratio_max, the worst checked residual divided
    by its pass threshold, and for the solve also solution_err.
    """
    if code != 0:
        return [f"exit code {code}"], {}
    n = plan["n"]
    outdir = plan["outdir"]
    if plan["argv"][0] == "generate":
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        problems = [] if report["pass"] is True else ["report pass is not true"]
        if len(report["surfaces"]) != plan["surfaces"]:
            problems.append(f"{len(report['surfaces'])} surfaces in report")
        ratio = 0.0
        for entry in report["surfaces"]:
            expected = (n * n, 2 * (n - 1) ** 2)
            counted = _count_obj_elements(entry["mesh_path"])
            reported = (entry["mesh"]["vertices"], entry["mesh"]["faces"])
            if counted != expected or reported != expected:
                problems.append(
                    f"mesh t={entry['t']}: file {counted}, report {reported}, "
                    f"expected {expected}"
                )
            ratio = max(
                ratio, _residual_ratio(entry["verification"], report["thresholds"])
            )
        accuracy = {"residual_ratio_max": ratio}
    elif plan["argv"][0] == "check":
        with open(plan["argv"][3], encoding="utf-8") as fh:
            report = json.load(fh)
        problems = [] if report["pass"] is True else ["report pass is not true"]
        grid = report["verification"]["grid"]
        if (grid["nx"], grid["ny"]) != (n, n):
            problems.append(f"checked grid {grid['nx']} x {grid['ny']}")
        accuracy = {
            "residual_ratio_max": _residual_ratio(
                report["verification"], report["thresholds"]
            )
        }
    else:
        data = np.loadtxt(
            os.path.join(outdir, "solution.csv"), delimiter=",", skiprows=1
        )
        problems = []
        if data.shape != (n * n, 3):
            return [f"solution table shape {data.shape}"], {}
        r2 = data[:, 0] ** 2 + data[:, 1] ** 2
        exact = np.log(16.0 / (1.0 - r2) ** 2)
        err = float(np.max(np.abs(data[:, 2] - exact)))
        bound = liouville_err_bound(2.0 * LIOUVILLE_HALF_WIDTH / (n - 1))
        accuracy = {"residual_ratio_max": err / bound, "solution_err": err}
    if not accuracy["residual_ratio_max"] <= 1.0:
        problems.append(
            f"residual_ratio_max {accuracy['residual_ratio_max']:.4g} > 1"
        )
    return problems, accuracy

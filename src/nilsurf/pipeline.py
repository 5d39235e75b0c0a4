"""End-to-end orchestration: solve -> integrate -> assemble -> verify -> export.

The pipeline turns a validated RunConfig into surfaces, residual reports,
and files, mapping every failure mode onto a stable exit code:

    0  all residual classes within thresholds
    2  configuration problem (schema, domains, check tolerances)
    3  integrability failure (inadmissible potential, failed solve)
    4  residual/threshold failure (including shape, singular-frame and
       degeneracy checks)
    5  I/O failure

Each rule has one site.  The verdict on a surface is
residuals.verify_surface's: it validates the check's tolerances,
measures, and sets the report's thresholds, pass and failures; the
threshold law and the classifier live beside the class table.  Both
commands call it through this module's global and read the verdict off
the report, and `check` validates its tolerances once more before it
reads the CSV, so a bad flag exits 2 first.  `guarded` is the one
failure path: it turns a NilsurfError or an OSError into a log line and
an exit code for every command, the configuration load of the command
line included.  `_finish` is the one tail of generate and check: it
writes the report and prints PASS or FAIL.  `check_writes` is the one
rule for the files a command writes, applied once by each command before
it reads or computes anything: no write is a file it reads or another it
writes.

`generate` marches the family once, behind the march's admissibility
gate (frame.integrate_grid), verifies every member, then writes the
members' meshes, before `_finish` writes the report.  The verdicts are
logged once the meshes are written, each with "; mesh -> PATH"; a
failed run logs them without it: a mesh that cannot be written exits 5
with the OSError's line, and a verify that raises exits 4 and leaves no
mesh on disk.
"""

import math
import os

import numpy as np

from . import frame
from .config import DEFAULT_TOLERANCES, check_tolerances, mesh_path
from .errors import (
    DegenerateNode,
    DomainError,
    LinearSolveFailure,
    MaxIterExceeded,
    NilsurfError,
    NonFlatInput,
    PotentialDataError,
    SchemaError,
    ShapeViolation,
    SingularFrameError,
)
from .outputs import (
    export_obj,
    mesh_summary,
    obj_faces,
    read_surface_csv,
    write_json,
    write_solution_csv,
)
from .pde import deferred_correction, newton_solve
from .potentials import Potential, liouville_exact
from .residuals import ANGLE_CUTOFF, RESIDUAL_KEYS, verify_surface
from .surface import generate_surface

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_INTEGRABILITY = 3
EXIT_RESIDUAL = 4
EXIT_IO = 5


def exit_code_for(exc):
    """Map a package exception onto the pipeline's exit code."""
    if isinstance(exc, (SchemaError, DomainError)):
        return EXIT_CONFIG
    if isinstance(
        exc, (PotentialDataError, MaxIterExceeded, LinearSolveFailure, NonFlatInput)
    ):
        return EXIT_INTEGRABILITY
    if isinstance(exc, (ShapeViolation, DegenerateNode, SingularFrameError)):
        return EXIT_RESIDUAL
    if isinstance(exc, OSError):
        return EXIT_IO
    raise exc


def guarded(step, log):
    """The one failure path: run step() -> (exit_code, value).

    A NilsurfError or OSError is logged and becomes (its exit code, None);
    any other exception propagates.
    """
    try:
        return step()
    except (NilsurfError, OSError) as exc:
        log(f"{'I/O error' if isinstance(exc, OSError) else 'error'}: {exc}")
        return exit_code_for(exc), None


def _finish(report_dict, report_path, passed, log):
    """The tail of generate and check: write the report, print the verdict."""
    if report_path is not None:
        write_json(report_dict, report_path)
        log(f"report -> {report_path}")
    log("PASS" if passed else "FAIL: residual thresholds exceeded")
    return (EXIT_PASS if passed else EXIT_RESIDUAL), report_dict


def check_writes(reads, writes):
    """SchemaError(key) for a write that is a read, an earlier write, or too long.

    reads are (description, path) pairs and writes (key, path) pairs in
    the order they are written; a None path is skipped.  Two paths are
    one file when their realpaths agree (neither need exist) or samefile
    says so (both exist: hard links).  A name may have PC_NAME_MAX bytes
    where its directory exists and os.pathconf does.  Only generate has
    earlier writes: its meshes, keyed t_values[k].
    """
    seen = [(what, p, os.path.realpath(p)) for what, p in reads if p is not None]
    for key, path in writes:
        if path is None:
            continue
        path, real = os.fspath(path), os.path.realpath(path)
        exists = os.path.exists(path)
        for what, other, other_real in seen:
            if real == other_real or (
                exists and os.path.exists(other) and os.path.samefile(path, other)
            ):
                raise SchemaError(key, f"{path!r} is {what}")
        directory = os.path.dirname(path) or "."
        if hasattr(os, "pathconf") and os.path.isdir(directory):
            limit = os.pathconf(directory, "PC_NAME_MAX")
            if len(os.fsencode(os.path.basename(path))) > limit > 0:
                raise SchemaError(key, f"{path!r}: name longer than {limit} bytes")
        seen.append((f"the mesh path of {key}", path, real))


def solve_density(config):
    """The 5-point density solve of a solved-source config; a SolveResult.

    The one solve both commands share: solve-gauss writes this field, and
    build_potential corrects it to fourth order.  Runs newton_solve on the
    config's solver grid with its Q0 and bc.
    """
    xs, ys = config.solver_domain.axes()
    z = xs[None, :] + 1j * ys[:, None]
    # a Q0 past the float range is inf, which newton_solve refuses
    with np.errstate(over="ignore", invalid="ignore"):
        q0_values = Potential.constant(1.0, config.q0_coefficients).q0(z)
    if config.bc == "liouville":
        bc = np.log(liouville_exact(z))
    else:
        bc = float(config.bc)
    return newton_solve(q0_values, bc, xs, ys)


def build_potential(config):
    """Construct the Potential a config describes, solving if necessary.

    Returns (potential, solver_summary, solve_result); the last two are
    None unless a solve ran.  A solved source is the 5-point solve
    (solve_density) corrected to fourth order (pde.deferred_correction),
    and solve_result is the corrected system's.  In the summary, "grid"
    is the solver grid of both passes; "newton_iterations",
    "residual_history" and "cg_iterations" describe the 5-point solve,
    and "final_residual" and "rounding_floor" the corrected system, whose
    residual the admissibility gate reads.
    """
    if config.rho0_source == "constant":
        return (
            Potential.constant(config.rho0_value, config.q0_coefficients),
            None,
            None,
        )
    if config.rho0_source == "liouville":
        return Potential.liouville(), None, None
    first = solve_density(config)
    result = deferred_correction(first)
    potential = Potential.solved(result, config.q0_coefficients)
    summary = {
        "grid": config.solver_domain.to_dict(),
        "newton_iterations": first.newton_iterations,
        "final_residual": result.final_residual,
        "residual_history": [float(v) for v in first.residual_history],
        "cg_iterations": [int(v) for v in first.cg_iterations],
        "rounding_floor": result.rounding_floor,
    }
    return potential, summary, result


def check_integrability(potential, x, y):
    """Admissibility gate over the surface nodes; NonFlatInput on failure.

    Returns the worst integrability residual (see frame._check_admissibility).
    Unused by the program, whose march gates; the benchmark's tracer wraps it.
    """
    z = np.asarray(x)[None, :] + 1j * np.asarray(y)[:, None]
    return frame._check_admissibility(potential, z)


def run_generate(config, log=print):
    """Full pipeline for one config; returns (exit_code, report_dict).

    Raises nothing for anticipated failures: they are logged and mapped to
    the exit code, with report_dict None.
    """
    return guarded(lambda: _generate(config, log), log)


def _generate(config, log):
    paths = [mesh_path(config.mesh_pattern, t) for t in config.t_values]
    check_writes(
        [("the configuration file", config.path)],
        [(f"t_values[{k}]", path) for k, path in enumerate(paths)]
        + [("outputs.report", config.report_path)],
    )
    potential, solver_summary, _ = build_potential(config)
    x, y = config.domain.axes()
    # each tolerance's RunConfig field is named after its key
    tolerances = {key: getattr(config, key) for key in DEFAULT_TOLERANCES}
    surfaces = generate_surface(potential, x, y, config.t_values)
    meshes = [mesh_summary(path, x.size, y.size) for path in paths]
    surfaces_out = []
    # the log lines, each with the note of the mesh it claims, held until
    # the meshes are written; a failed run claims none
    held, written = [], False
    try:
        for surf, t, mesh in zip(surfaces, config.t_values, meshes):
            report = verify_surface(surf, potential, **tolerances)
            thresholds = report.thresholds
            # a class with no finite value ranks last
            worst_key = max(
                RESIDUAL_KEYS,
                key=lambda k: -math.inf
                if math.isnan(report.maxima[k])
                else report.maxima[k] / thresholds[k],
            )
            line = (
                f"[t={t:.6f}] {'pass' if report.passed else 'FAIL'}  worst "
                f"{worst_key} = {report.maxima[worst_key]:.3e} "
                f"(threshold {thresholds[worst_key]:.3e})"
            )
            held.append((line, f"; mesh -> {mesh.path}"))
            held += [
                (f"    over threshold: {key} = {value:.3e} > {threshold:.3e}", "")
                for key, value, threshold in report.failures
            ]
            surfaces_out.append(
                {
                    "t": float(t),
                    "mesh_path": mesh.path,
                    "mesh": {
                        "vertices": mesh.vertex_count,
                        "faces": mesh.face_count,
                    },
                    "pass": report.passed,
                    "failures": report.failure_entries(),
                    "verification": report.to_dict(),
                }
            )
        # every member's mesh shares the grid, hence the face block
        faces = obj_faces(x.size, y.size)
        for surf, mesh in zip(surfaces, meshes):
            export_obj(surf, mesh.path, faces)
        written = True
    finally:
        for line, mesh_note in held:
            log(line + mesh_note if written else line)
    report_dict = {
        "schema": "nilsurf-report/1",
        "config": config.to_dict(),
        "potential": potential.describe(),
        # every member shares the grid, hence the thresholds
        "thresholds": report.threshold_entries(),
        "solver": solver_summary,
        "surfaces": surfaces_out,
        "pass": all(entry["pass"] for entry in surfaces_out),
    }
    return _finish(report_dict, config.report_path, report_dict["pass"], log)


def run_check(csv_path, report_path=None, log=print, **tolerances):
    """Verify an externally supplied surface CSV; returns (exit_code, dict).

    tolerances are the keywords of DEFAULT_TOLERANCES (margin and
    threshold_scale; defaults from DEFAULT_TOLERANCES).  A value a config
    file may not hold, or a report_path that check_writes refuses (the CSV
    itself, say), exits 2 before the file is read.
    """
    return guarded(lambda: _check(csv_path, report_path, tolerances, log), log)


def _check(csv_path, report_path, tolerances, log):
    check_writes([("the surface CSV", csv_path)], [("--report", report_path)])
    tolerances = check_tolerances(**tolerances)
    surface = read_surface_csv(csv_path)
    report = verify_surface(surface, **tolerances)
    thresholds = report.thresholds
    failed = {key for key, _, _ in report.failures}
    for key in RESIDUAL_KEYS:
        value = report.maxima[key]
        if math.isnan(value):
            entry, ok = f"({_nan_note(report, key)})", ""
        else:
            entry, ok = f"{value:.3e}  threshold {thresholds[key]:.3e}", "  ok"
        log(f"  {key:<24} {entry}" + ("  OVER" if key in failed else ok))
    report_dict = {
        "schema": "nilsurf-check/1",
        "input": str(csv_path),
        "thresholds": report.threshold_entries(),
        "pass": report.passed,
        "failures": report.failure_entries(),
        "verification": report.to_dict(),
    }
    return _finish(report_dict, report_path, report.passed, log)


def _nan_note(report, key):
    """Why class key has no value, from the nodes it was evaluated on."""
    evaluated = report.evaluated[key]
    if key != "gauss_map_tension":
        if evaluated:
            return "no finite value on the interior"
        return "not computable from coordinate data"
    cutoff = f"the angle cutoff {ANGLE_CUTOFF:g}"
    if not evaluated:
        return f"every interior node masked by {cutoff}"
    skipped = report.tension_skipped
    return (
        f"no finite value on the interior; {skipped} of "
        f"{evaluated + skipped} interior nodes masked by {cutoff}"
    )


def run_solve(config, out_path=None, log=print):
    """Standalone density solve (solve-gauss); returns (exit_code, result).

    Requires a solved rho0 source in the config — the other sources have
    closed forms and nothing to solve.
    """
    return guarded(lambda: _solve(config, out_path, log), log)


def _solve(config, out_path, log):
    key, path = "--out", out_path
    if out_path is None:
        key, path = "outputs.solution", config.solution_path
    check_writes([("the configuration file", config.path)], [(key, path)])
    if config.rho0_source != "solved":
        raise SchemaError(
            "potential.rho0.source", 'solve-gauss requires the "solved" source'
        )
    result = solve_density(config)
    write_solution_csv(result, path)
    history = ", ".join(f"{v:.3e}" for v in result.residual_history)
    log(
        f"solved {result.x.size} x {result.y.size} grid in "
        f"{result.newton_iterations} Newton steps; residual history: {history} "
        f"(rounding floor {result.rounding_floor:.3e})"
    )
    log(f"solution -> {path}")
    return EXIT_PASS, result

"""End-to-end orchestration: solve -> integrate -> assemble -> verify -> export.

The pipeline turns a validated RunConfig into surfaces, residual reports,
and files, mapping every failure mode onto a stable exit code:

    0  all residual classes within thresholds
    2  configuration problem (schema, domains, check tolerances)
    3  integrability failure (inadmissible potential, failed solve)
    4  residual/threshold failure (including shape, singular-frame and
       degeneracy checks)
    5  I/O failure

Residual thresholds scale with the grid: threshold = max(floor, scale * C
* h^2) per residual class, with the coefficients C of the class table
residuals.RESIDUAL_CLASSES (calibrated on the flagship configurations)
and h the larger grid spacing.  A fixed absolute threshold would
spuriously fail coarse grids and trivially pass fine ones; the h^2 law
matches the second-order convergence of every residual class.
`classify_report` has one rule for every class and is the one verdict:
`check`'s table says OVER for exactly its failures.

Each rule has one site.  `_verdict` is the one verify -> thresholds ->
classify step, shared by run_generate (h from the config domain),
run_check and check_surface_like (h from the surface axes); the last two
validate their tolerances with config.check_tolerances before they read
or verify anything.  `guarded` is the one failure path: it turns a
NilsurfError or an OSError into a log line and an exit code for every
command, the configuration load of the command line included.  `_finish`
is the one tail of generate and check: it writes the report and prints
PASS or FAIL.  `check_writes` is the one rule for the files a command
writes, applied once by each command before it reads or computes
anything: no write is a file it reads or another it writes.

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
from .residuals import RESIDUAL_CLASSES, RESIDUAL_KEYS, verify_surface
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


def residual_thresholds(
    h,
    floor=DEFAULT_TOLERANCES["residual_floor"],
    scale=DEFAULT_TOLERANCES["threshold_scale"],
):
    """Threshold per residual class: max(floor, scale * C * h^2)."""
    return {
        key: max(floor, scale * coeff * h * h)
        for key, coeff in RESIDUAL_CLASSES.items()
    }


def classify_report(report, thresholds):
    """Compare a ResidualReport's maxima against thresholds.

    A class fails when its maximum exceeds its threshold, or when its
    maximum is NaN (no finite value, from overflowed derivatives, say)
    and report.evaluated counts nodes where it had its inputs; with none
    it is not computable and skipped.  Returns (passed, failures) where
    failures lists (key, value, threshold) triples.
    """
    failures = []
    for key in RESIDUAL_KEYS:
        value, threshold = report.maxima[key], thresholds[key]
        if value > threshold or (math.isnan(value) and report.evaluated[key] > 0):
            failures.append((key, value, threshold))
    return (not failures), failures


def _failure_entries(failures):
    """JSON entries of classify_report's failures; a NaN value is null."""
    return [
        {"residual": k, "value": None if math.isnan(v) else v, "threshold": thr}
        for k, v, thr in failures
    ]


def _verdict(
    surface, h, potential, margin, angle_cutoff, residual_floor, threshold_scale
):
    """The one verify -> thresholds -> classify step of the pipeline.

    h None takes the larger spacing of the surface's own axes, once
    verify_surface has checked them.  Returns (report, thresholds, passed,
    failures).
    """
    report = verify_surface(
        surface, potential=potential, angle_cutoff=angle_cutoff, margin=margin
    )
    if h is None:
        h = max(abs(step) for step in report.spacing)
    thresholds = residual_thresholds(h, floor=residual_floor, scale=threshold_scale)
    return (report, thresholds) + classify_report(report, thresholds)


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
        bc = np.full(z.shape, float(config.bc))
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
    h = max(config.domain.hx, config.domain.hy)
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
            report, thresholds, passed, failures = _verdict(
                surf, h, potential, **tolerances
            )
            # a class with no finite value ranks last
            worst_key = max(
                RESIDUAL_KEYS,
                key=lambda k: -math.inf
                if math.isnan(report.maxima[k])
                else report.maxima[k] / thresholds[k],
            )
            line = (
                f"[t={t:.6f}] {'pass' if passed else 'FAIL'}  worst "
                f"{worst_key} = {report.maxima[worst_key]:.3e} "
                f"(threshold {thresholds[worst_key]:.3e})"
            )
            held.append((line, f"; mesh -> {mesh.path}"))
            held += [
                (f"    over threshold: {key} = {value:.3e} > {threshold:.3e}", "")
                for key, value, threshold in failures
            ]
            surfaces_out.append(
                {
                    "t": float(t),
                    "mesh_path": mesh.path,
                    "mesh": {
                        "vertices": mesh.vertex_count,
                        "faces": mesh.face_count,
                    },
                    "pass": passed,
                    "failures": _failure_entries(failures),
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
        "thresholds": thresholds,
        "solver": solver_summary,
        "surfaces": surfaces_out,
        "pass": all(entry["pass"] for entry in surfaces_out),
    }
    return _finish(report_dict, config.report_path, report_dict["pass"], log)


def run_check(csv_path, report_path=None, log=print, **tolerances):
    """Verify an externally supplied surface CSV; returns (exit_code, dict).

    tolerances are the keywords of DEFAULT_TOLERANCES (margin, angle_cutoff,
    residual_floor, threshold_scale; defaults from DEFAULT_TOLERANCES).  A
    value a config file may not hold, or a report_path that check_writes
    refuses (the CSV itself, say), exits 2 before the file is read.
    """
    return guarded(lambda: _check(csv_path, report_path, tolerances, log), log)


def _check(csv_path, report_path, tolerances, log):
    check_writes([("the surface CSV", csv_path)], [("--report", report_path)])
    tolerances = check_tolerances(**tolerances)
    surface = read_surface_csv(csv_path)
    report, thresholds, passed, failures = _verdict(
        surface, None, None, **tolerances
    )
    failed = {key for key, _, _ in failures}
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
        "thresholds": thresholds,
        "pass": passed,
        "failures": _failure_entries(failures),
        "verification": report.to_dict(),
    }
    return _finish(report_dict, report_path, passed, log)


def _nan_note(report, key):
    """Why class key has no value, from the nodes it was evaluated on."""
    evaluated = report.evaluated[key]
    if key != "gauss_map_tension":
        if evaluated:
            return "no finite value on the interior"
        return "not computable from coordinate data"
    cutoff = f"the angle cutoff {report.angle_cutoff:g}"
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


def check_surface_like(surface, potential=None, **tolerances):
    """Convenience: verify+classify any surface grid without files.

    Takes run_check's tolerance keywords, validated the same way
    (SchemaError on a bad value, TypeError on an unknown keyword), plus
    the potential for the classes that need frame data; returns (passed,
    failures, report).  A grid the stencils cannot use raises
    verify_surface's DomainError.
    """
    report, _, passed, failures = _verdict(
        surface, None, potential, **check_tolerances(**tolerances)
    )
    return passed, failures, report

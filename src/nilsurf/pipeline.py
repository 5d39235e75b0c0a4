"""End-to-end orchestration: solve -> integrate -> assemble -> verify -> export.

The pipeline turns a validated RunConfig into surfaces, residual reports,
and files, mapping every failure mode onto a stable exit code:

    0  all residual classes within thresholds
    2  configuration problem (schema, domains)
    3  integrability failure (inadmissible potential, failed solve)
    4  residual/threshold failure (including shape and degeneracy checks)
    5  I/O failure

Residual thresholds scale with the grid: threshold = max(floor, scale * C
* h^2) per residual class, with per-class coefficients C calibrated on the
flagship configurations (documented in the README) and h the larger grid
spacing.  A fixed absolute threshold would spuriously fail coarse grids
and trivially pass fine ones; the h^2 law matches the second-order
convergence of every residual class.
"""

import math

import numpy as np

from . import frame
from .config import DEFAULT_TOLERANCES
from .errors import (
    DegenerateNode,
    DomainError,
    LinearSolveFailure,
    MaxIterExceeded,
    NilsurfError,
    NonFlatInput,
    PoleError,
    PotentialDataError,
    SchemaError,
    ShapeViolation,
    SingularFrameError,
)
from .outputs import (
    export_obj,
    read_surface_csv,
    write_json,
    write_solution_csv,
)
from .pde import liouville_exact, newton_solve
from .potentials import Potential
from .residuals import COORDINATE_KEYS, RESIDUAL_KEYS, verify_surface
from .surface import generate_surface

#: Per-class coefficients C in the threshold law max(floor, scale*C*h^2),
#: calibrated with ~10x headroom over the flagship configurations.
THRESHOLD_COEFFS = {
    "conformality": 2.0,
    "minimality_horizontal": 0.5,
    "minimality_vertical": 1.0,
    "covariant_minimality": 1.5,
    "aux_height_consistency": 1.5,
    "hopf_holomorphy": 0.6,
    "gauss_map_tension": 0.25,
    "fhat_laplace_identity": 0.5,
}

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
    if isinstance(
        exc, (ShapeViolation, DegenerateNode, SingularFrameError, PoleError)
    ):
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
        for key, coeff in THRESHOLD_COEFFS.items()
    }


def classify_report(report, thresholds):
    """Compare a ResidualReport's maxima against thresholds.

    Residual classes that were not computable (NaN maxima, e.g. auxiliary
    checks on external surfaces) are skipped, except the COORDINATE_KEYS:
    every surface has the data for those, so a NaN there (no finite value
    on the interior, e.g. overflowed derivatives) fails.  Returns (passed,
    failures) where failures lists (key, value, threshold) triples.
    """
    failures = []
    for key in RESIDUAL_KEYS:
        value = report.maxima.get(key, float("nan"))
        if value is None or math.isnan(value):
            if key in COORDINATE_KEYS:
                failures.append((key, float("nan"), thresholds[key]))
            continue
        if value > thresholds[key]:
            failures.append((key, value, thresholds[key]))
    return (not failures), failures


def _failure_entries(failures):
    """JSON entries of classify_report's failures; a NaN value is null."""
    return [
        {"residual": k, "value": None if math.isnan(v) else v, "threshold": thr}
        for k, v, thr in failures
    ]


def build_potential(config):
    """Construct the Potential a config describes, solving if necessary.

    Returns (potential, solver_summary, solve_result); the last two are
    None unless a solve ran (then: grid, iteration and residual data).
    """
    if config.rho0_source == "constant":
        return (
            Potential.constant(config.rho0_value, config.q0_coefficients),
            None,
            None,
        )
    if config.rho0_source == "liouville":
        return Potential.liouville(), None, None
    solver_grid = config.resolved_solver_domain()
    xs, ys = solver_grid.axes()
    z = xs[None, :] + 1j * ys[:, None]
    stub = Potential.constant(1.0, config.q0_coefficients)
    q0_values = stub.q0(z)
    if config.bc == "liouville":
        bc = np.log(liouville_exact(z))
    else:
        bc = np.full(z.shape, float(config.bc))
    result = newton_solve(
        q0_values,
        bc,
        xs,
        ys,
        tol=config.solver_tol,
        max_iter=config.solver_max_iter,
    )
    potential = Potential.solved(result, config.q0_coefficients)
    summary = {
        "grid": solver_grid.to_dict(),
        "newton_iterations": result.newton_iterations,
        "final_residual": result.final_residual,
        "residual_history": [float(v) for v in result.residual_history],
        "cg_iterations": [int(v) for v in result.cg_iterations],
    }
    return potential, summary, result


def check_integrability(potential, x, y):
    """Admissibility gate over the surface nodes; NonFlatInput on failure.

    Returns the worst integrability residual (see frame._check_admissibility).
    """
    z = np.asarray(x)[None, :] + 1j * np.asarray(y)[:, None]
    return frame._check_admissibility(potential, z)


def _mesh_path(pattern, t):
    return pattern.replace("{t}", f"{t:.6f}")


def run_generate(config, log=print):
    """Full pipeline for one config; returns (exit_code, report_dict).

    Raises nothing for anticipated failures — they are logged, mapped to
    the exit code, and (where meaningful) recorded in the report dict.
    """
    try:
        potential, solver_summary, _ = build_potential(config)
        x, y = config.domain.axes()
        check_integrability(potential, x, y)
    except NilsurfError as exc:
        log(f"error: {exc}")
        return exit_code_for(exc), None

    h = max(config.domain.hx, config.domain.hy)
    thresholds = residual_thresholds(
        h, floor=config.residual_floor, scale=config.threshold_scale
    )
    surfaces_out = []
    all_pass = True
    try:
        surfaces = generate_surface(
            potential,
            x,
            y,
            config.t_values,
            shape_tol=config.shape_tol,
            check_flatness=False,  # gated once above
        )
        for t in config.t_values:
            # release each member once it is exported
            surf = surfaces.pop(0)
            report = verify_surface(
                surf,
                potential=potential,
                angle_cutoff=config.angle_cutoff,
                margin=config.margin,
            )
            passed, failures = classify_report(report, thresholds)
            all_pass = all_pass and passed
            mesh_path = _mesh_path(config.mesh_pattern, t)
            mesh = export_obj(surf, mesh_path)
            status = "pass" if passed else "FAIL"
            worst_key = max(
                (k for k in RESIDUAL_KEYS if not math.isnan(report.maxima[k])),
                key=lambda k: report.maxima[k] / thresholds[k],
            )
            log(
                f"[t={t:.6f}] {status}  worst {worst_key} = "
                f"{report.maxima[worst_key]:.3e} "
                f"(threshold {thresholds[worst_key]:.3e}); mesh -> {mesh.path}"
            )
            for key, value, threshold in failures:
                log(f"    over threshold: {key} = {value:.3e} > {threshold:.3e}")
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
    except NilsurfError as exc:
        log(f"error: {exc}")
        return exit_code_for(exc), None
    except OSError as exc:
        log(f"I/O error: {exc}")
        return EXIT_IO, None

    report_dict = {
        "schema": "nilsurf-report/1",
        "config": config.to_dict(),
        "potential": potential.describe(),
        "thresholds": thresholds,
        "solver": solver_summary,
        "surfaces": surfaces_out,
        "pass": all_pass,
    }
    try:
        write_json(report_dict, config.report_path)
    except OSError as exc:
        log(f"I/O error: {exc}")
        return EXIT_IO, report_dict
    log(f"report -> {config.report_path}")
    log("PASS" if all_pass else "FAIL: residual thresholds exceeded")
    return (EXIT_PASS if all_pass else EXIT_RESIDUAL), report_dict


def run_check(
    csv_path,
    report_path=None,
    margin=DEFAULT_TOLERANCES["margin"],
    angle_cutoff=DEFAULT_TOLERANCES["angle_cutoff"],
    residual_floor=DEFAULT_TOLERANCES["residual_floor"],
    threshold_scale=DEFAULT_TOLERANCES["threshold_scale"],
    log=print,
):
    """Verify an externally supplied surface CSV; returns (exit_code, dict)."""
    try:
        surface = read_surface_csv(csv_path)
    except NilsurfError as exc:
        log(f"error: {exc}")
        return exit_code_for(exc), None
    except OSError as exc:
        log(f"I/O error: {exc}")
        return EXIT_IO, None
    hx = float(surface.x[1] - surface.x[0])
    hy = float(surface.y[1] - surface.y[0])
    thresholds = residual_thresholds(
        max(hx, hy), floor=residual_floor, scale=threshold_scale
    )
    try:
        report = verify_surface(
            surface, angle_cutoff=angle_cutoff, margin=margin
        )
    except NilsurfError as exc:
        log(f"error: {exc}")
        return exit_code_for(exc), None
    passed, failures = classify_report(report, thresholds)
    for key in RESIDUAL_KEYS:
        value = report.maxima[key]
        if math.isnan(value) and key in COORDINATE_KEYS:
            log(f"  {key:<24} (no finite value on the interior)  OVER")
        elif math.isnan(value):
            log(f"  {key:<24} (not computable from coordinate data)")
        else:
            verdict = "ok" if value <= thresholds[key] else "OVER"
            log(
                f"  {key:<24} {value:.3e}  threshold {thresholds[key]:.3e}  "
                f"{verdict}"
            )
    report_dict = {
        "schema": "nilsurf-check/1",
        "input": str(csv_path),
        "thresholds": thresholds,
        "pass": passed,
        "failures": _failure_entries(failures),
        "verification": report.to_dict(),
    }
    if report_path is not None:
        try:
            write_json(report_dict, report_path)
        except OSError as exc:
            log(f"I/O error: {exc}")
            return EXIT_IO, report_dict
        log(f"report -> {report_path}")
    log("PASS" if passed else "FAIL: residual thresholds exceeded")
    return (EXIT_PASS if passed else EXIT_RESIDUAL), report_dict


def run_solve(config, out_path=None, log=print):
    """Standalone density solve (solve-gauss); returns (exit_code, result).

    Requires a solved rho0 source in the config — the other sources have
    closed forms and nothing to solve.
    """
    if config.rho0_source != "solved":
        log("error: solve-gauss requires potential.rho0.source == \"solved\"")
        return EXIT_CONFIG, None
    try:
        _, _, result = build_potential(config)
    except NilsurfError as exc:
        log(f"error: {exc}")
        return exit_code_for(exc), None
    path = out_path if out_path is not None else config.solution_path
    try:
        write_solution_csv(result, path)
    except OSError as exc:
        log(f"I/O error: {exc}")
        return EXIT_IO, None
    history = ", ".join(f"{v:.3e}" for v in result.residual_history)
    log(
        f"solved {result.x.size} x {result.y.size} grid in "
        f"{result.newton_iterations} Newton steps; residual history: {history}"
    )
    log(f"solution -> {path}")
    return EXIT_PASS, result


def check_surface_like(
    surface,
    potential=None,
    margin=DEFAULT_TOLERANCES["margin"],
    angle_cutoff=DEFAULT_TOLERANCES["angle_cutoff"],
    residual_floor=DEFAULT_TOLERANCES["residual_floor"],
    threshold_scale=DEFAULT_TOLERANCES["threshold_scale"],
):
    """Convenience: verify+classify any surface grid without files.

    Takes run_check's threshold options, plus the potential for the
    classes that need frame data; returns (passed, failures, report).
    """
    hx = float(surface.x[1] - surface.x[0])
    hy = float(surface.y[1] - surface.y[0])
    report = verify_surface(
        surface, potential=potential, angle_cutoff=angle_cutoff, margin=margin
    )
    thresholds = residual_thresholds(
        max(hx, hy), floor=residual_floor, scale=threshold_scale
    )
    passed, failures = classify_report(report, thresholds)
    return passed, failures, report

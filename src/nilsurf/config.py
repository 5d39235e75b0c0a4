"""Run-configuration schema: parsing, validation, defaults, serialization.

A run configuration is a JSON document:

    {
      "potential": {
        "q0_coefficients": [[0.25, 0.0]],        # ascending, [re, im] pairs
        "rho0": {"source": "constant", "value": 1.0}
                # or {"source": "liouville"}
                # or {"source": "solved", "bc": 0.0,
                #     "solver_domain": {...}}     # optional, see below
      },
      "domain": {"xmin": -1.0, "xmax": 1.0,
                 "ymin": -1.0, "ymax": 1.0, "nx": 65, "ny": 65},
      "t_values": [0.0, 0.7853981633974483, 1.5707963267948966],
      "solver": {"tol": 1e-10, "max_iter": 50},
      "tolerances": {"shape": 1e-6, "angle_cutoff": 0.05, "margin": 2,
                     "residual_floor": 1e-10, "threshold_scale": 1.0},
      "outputs": {"mesh": "surface_t{t}.obj", "report": "report.json",
                  "solution": "solution.csv"}
    }

Only "potential" and "domain" are required; everything else defaults as
shown.  Q0 coefficients may be written as [re, im] pairs or plain numbers.
The solved source accepts "bc" as a constant (number) or the string
"liouville" (boundary data sampled from the closed-form density).  When
"solver_domain" is omitted it defaults to the surface domain scaled by 2
about the origin with the node counts chosen so the solver spacing is
exactly half the surface spacing.  That default serves two purposes: the
solver grid must resolve the density at least twice as finely as the
integration grid (so interpolation error stays below the integration
error), and pushing the artificial Dirichlet boundary away from the
surface window keeps the boundary's corner kinks — where the constant
boundary data is incompatible with the nonzero right-hand side — out of
the region whose derivatives feed the surface.

Admissibility of the potential has no tolerance key: it is the one check
in the frame module (integrability residual at most 1e-6 at every surface
node), and a document that still sets "tolerances.flatness" is rejected
as an unknown key.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError

DEFAULT_T_VALUES = (0.0, math.pi / 4.0, math.pi / 2.0)
DEFAULT_SOLVER = {"tol": 1e-10, "max_iter": 50}
DEFAULT_TOLERANCES = {
    "shape": 1e-6,
    "angle_cutoff": 0.05,
    "margin": 2,
    "residual_floor": 1e-10,
    "threshold_scale": 1.0,
}
DEFAULT_OUTPUTS = {
    "mesh": "surface_t{t}.obj",
    "report": "report.json",
    "solution": "solution.csv",
}
MIN_NODES = 9
MAX_Q0_COEFFS = 9


@dataclass
class GridSpec:
    """A rectangle with node counts; axes() yields the uniform grid."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def axes(self):
        return (
            np.linspace(self.xmin, self.xmax, self.nx),
            np.linspace(self.ymin, self.ymax, self.ny),
        )

    @property
    def hx(self):
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def hy(self):
        return (self.ymax - self.ymin) / (self.ny - 1)

    def contains_origin(self):
        return self.xmin <= 0.0 <= self.xmax and self.ymin <= 0.0 <= self.ymax

    def to_dict(self):
        return {
            "xmin": self.xmin,
            "xmax": self.xmax,
            "ymin": self.ymin,
            "ymax": self.ymax,
            "nx": self.nx,
            "ny": self.ny,
        }


@dataclass
class RunConfig:
    """Validated run configuration with all defaults resolved."""

    q0_coefficients: np.ndarray
    rho0_source: str
    domain: GridSpec
    rho0_value: float = 1.0
    solver_domain: GridSpec = None
    bc: object = 0.0
    t_values: tuple = DEFAULT_T_VALUES
    solver_tol: float = DEFAULT_SOLVER["tol"]
    solver_max_iter: int = DEFAULT_SOLVER["max_iter"]
    shape_tol: float = DEFAULT_TOLERANCES["shape"]
    angle_cutoff: float = DEFAULT_TOLERANCES["angle_cutoff"]
    margin: int = DEFAULT_TOLERANCES["margin"]
    residual_floor: float = DEFAULT_TOLERANCES["residual_floor"]
    threshold_scale: float = DEFAULT_TOLERANCES["threshold_scale"]
    mesh_pattern: str = DEFAULT_OUTPUTS["mesh"]
    report_path: str = DEFAULT_OUTPUTS["report"]
    solution_path: str = DEFAULT_OUTPUTS["solution"]

    def to_dict(self):
        """JSON-ready dictionary; parse(serialize(cfg)) == cfg."""
        potential = {
            "q0_coefficients": [
                [float(c.real), float(c.imag)] for c in self.q0_coefficients
            ],
            "rho0": {"source": self.rho0_source},
        }
        if self.rho0_source == "constant":
            potential["rho0"]["value"] = self.rho0_value
        if self.rho0_source == "solved":
            potential["rho0"]["bc"] = self.bc
            potential["rho0"]["solver_domain"] = self.resolved_solver_domain().to_dict()
        return {
            "potential": potential,
            "domain": self.domain.to_dict(),
            "t_values": list(self.t_values),
            "solver": {"tol": self.solver_tol, "max_iter": self.solver_max_iter},
            "tolerances": {
                "shape": self.shape_tol,
                "angle_cutoff": self.angle_cutoff,
                "margin": self.margin,
                "residual_floor": self.residual_floor,
                "threshold_scale": self.threshold_scale,
            },
            "outputs": {
                "mesh": self.mesh_pattern,
                "report": self.report_path,
                "solution": self.solution_path,
            },
        }

    def resolved_solver_domain(self):
        """The solver rectangle: explicit, or the documented x2 default."""
        if self.solver_domain is not None:
            return self.solver_domain
        d = self.domain
        return GridSpec(
            xmin=2.0 * d.xmin,
            xmax=2.0 * d.xmax,
            ymin=2.0 * d.ymin,
            ymax=2.0 * d.ymax,
            nx=4 * d.nx - 3,
            ny=4 * d.ny - 3,
        )


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise SchemaError(f"{path}.{key}", "missing required key")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _check_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise SchemaError(
                f"{path}.{key}" if path else key,
                f"unknown key (allowed: {', '.join(sorted(allowed))})",
            )


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(path, "expected a finite number")
    return value


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    return value


def _parse_grid(raw, path, min_nodes=MIN_NODES):
    _check_keys(raw, {"xmin", "xmax", "ymin", "ymax", "nx", "ny"}, path)
    grid = GridSpec(
        xmin=_as_float(_require(raw, "xmin", path), f"{path}.xmin"),
        xmax=_as_float(_require(raw, "xmax", path), f"{path}.xmax"),
        ymin=_as_float(_require(raw, "ymin", path), f"{path}.ymin"),
        ymax=_as_float(_require(raw, "ymax", path), f"{path}.ymax"),
        nx=_as_int(_require(raw, "nx", path), f"{path}.nx"),
        ny=_as_int(_require(raw, "ny", path), f"{path}.ny"),
    )
    if grid.xmin >= grid.xmax:
        raise SchemaError(f"{path}.xmin", "xmin must be < xmax")
    if grid.ymin >= grid.ymax:
        raise SchemaError(f"{path}.ymin", "ymin must be < ymax")
    if grid.nx < min_nodes or grid.ny < min_nodes:
        raise SchemaError(f"{path}.nx", f"node counts must be >= {min_nodes}")
    return grid


def _parse_q0(raw, path):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a nonempty list of coefficients")
    if len(raw) > MAX_Q0_COEFFS:
        raise SchemaError(
            path, f"at most {MAX_Q0_COEFFS} coefficients (degree <= 8) supported"
        )
    coeffs = []
    for k, entry in enumerate(raw):
        here = f"{path}[{k}]"
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            coeffs.append(complex(float(entry), 0.0))
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in entry
            )
        ):
            coeffs.append(complex(float(entry[0]), float(entry[1])))
        else:
            raise SchemaError(here, "expected a number or an [re, im] pair")
        if not (math.isfinite(coeffs[-1].real) and math.isfinite(coeffs[-1].imag)):
            raise SchemaError(here, "coefficients must be finite")
    return np.asarray(coeffs, dtype=complex)


def parse_config(text):
    """Parse and validate a JSON run configuration.

    Raises SchemaError (with the path of the offending key) for structural
    problems and DomainError for geometric ones (the surface domain must
    contain the base point z = 0; a liouville-source domain must close
    inside the unit disk; a solved-source solver rectangle must contain the
    surface rectangle at no more than half its spacing).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("<document>", "top level must be an object")
    _check_keys(
        raw,
        {"potential", "domain", "t_values", "solver", "tolerances", "outputs"},
        "",
    )

    potential_raw = _require(raw, "potential", "<document>", dict)
    _check_keys(potential_raw, {"q0_coefficients", "rho0"}, "potential")
    q0 = _parse_q0(
        _require(potential_raw, "q0_coefficients", "potential"),
        "potential.q0_coefficients",
    )
    rho0_raw = _require(potential_raw, "rho0", "potential", dict)
    source = _require(rho0_raw, "source", "potential.rho0")
    if source not in ("constant", "liouville", "solved"):
        raise SchemaError(
            "potential.rho0.source",
            "expected one of: constant, liouville, solved",
        )

    rho0_value = 1.0
    solver_domain = None
    bc = 0.0
    if source == "constant":
        _check_keys(rho0_raw, {"source", "value"}, "potential.rho0")
        rho0_value = _as_float(
            _require(rho0_raw, "value", "potential.rho0"), "potential.rho0.value"
        )
        if rho0_value <= 0.0:
            raise SchemaError("potential.rho0.value", "must be positive")
    elif source == "liouville":
        _check_keys(rho0_raw, {"source"}, "potential.rho0")
        if np.any(q0 != 0):
            raise SchemaError(
                "potential.rho0.source",
                "the liouville closed form solves the Q0 = 0 equation; "
                "use a solved source for nonzero Q0",
            )
    else:
        _check_keys(rho0_raw, {"source", "bc", "solver_domain"}, "potential.rho0")
        if "bc" in rho0_raw:
            bc_raw = rho0_raw["bc"]
            if bc_raw == "liouville":
                bc = "liouville"
            else:
                bc = _as_float(bc_raw, "potential.rho0.bc")
        if "solver_domain" in rho0_raw:
            if not isinstance(rho0_raw["solver_domain"], dict):
                raise SchemaError("potential.rho0.solver_domain", "expected object")
            solver_domain = _parse_grid(
                rho0_raw["solver_domain"], "potential.rho0.solver_domain"
            )

    domain = _parse_grid(_require(raw, "domain", "<document>", dict), "domain")

    t_values = tuple(DEFAULT_T_VALUES)
    if "t_values" in raw:
        tv = raw["t_values"]
        if not isinstance(tv, list) or not tv:
            raise SchemaError("t_values", "expected a nonempty list of reals")
        t_values = tuple(_as_float(v, f"t_values[{k}]") for k, v in enumerate(tv))

    solver = dict(DEFAULT_SOLVER)
    if "solver" in raw:
        if not isinstance(raw["solver"], dict):
            raise SchemaError("solver", "expected object")
        _check_keys(raw["solver"], set(DEFAULT_SOLVER), "solver")
        for key, value in raw["solver"].items():
            solver[key] = value
    tol = _as_float(solver["tol"], "solver.tol")
    if tol <= 0:
        raise SchemaError("solver.tol", "must be positive")
    max_iter = _as_int(solver["max_iter"], "solver.max_iter")
    if max_iter < 1:
        raise SchemaError("solver.max_iter", "must be >= 1")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        if not isinstance(raw["tolerances"], dict):
            raise SchemaError("tolerances", "expected object")
        _check_keys(raw["tolerances"], set(DEFAULT_TOLERANCES), "tolerances")
        for key, value in raw["tolerances"].items():
            tolerances[key] = value
    shape_tol = _as_float(tolerances["shape"], "tolerances.shape")
    angle_cutoff = _as_float(tolerances["angle_cutoff"], "tolerances.angle_cutoff")
    margin = _as_int(tolerances["margin"], "tolerances.margin")
    floor = _as_float(tolerances["residual_floor"], "tolerances.residual_floor")
    scale = _as_float(tolerances["threshold_scale"], "tolerances.threshold_scale")
    for name, value in (
        ("shape", shape_tol),
        ("residual_floor", floor),
        ("threshold_scale", scale),
    ):
        if value <= 0:
            raise SchemaError(f"tolerances.{name}", "must be positive")
    if margin < 1:
        raise SchemaError("tolerances.margin", "must be >= 1")

    outputs = dict(DEFAULT_OUTPUTS)
    if "outputs" in raw:
        if not isinstance(raw["outputs"], dict):
            raise SchemaError("outputs", "expected object")
        _check_keys(raw["outputs"], set(DEFAULT_OUTPUTS), "outputs")
        for key, value in raw["outputs"].items():
            if not isinstance(value, str) or not value:
                raise SchemaError(f"outputs.{key}", "expected a nonempty string")
            outputs[key] = value
    if len(t_values) > 1 and "{t}" not in outputs["mesh"]:
        raise SchemaError(
            "outputs.mesh",
            "pattern must contain {t} when more than one t value is requested",
        )

    config = RunConfig(
        q0_coefficients=q0,
        rho0_source=source,
        domain=domain,
        rho0_value=rho0_value,
        solver_domain=solver_domain,
        bc=bc,
        t_values=t_values,
        solver_tol=tol,
        solver_max_iter=max_iter,
        shape_tol=shape_tol,
        angle_cutoff=angle_cutoff,
        margin=margin,
        residual_floor=floor,
        threshold_scale=scale,
        mesh_pattern=outputs["mesh"],
        report_path=outputs["report"],
        solution_path=outputs["solution"],
    )
    _validate_geometry(config)
    return config


def _validate_geometry(config):
    """Cross-field geometric validation (DomainError on failure)."""
    domain = config.domain
    if not domain.contains_origin():
        raise DomainError("surface domain must contain the base point z = 0")
    if config.rho0_source == "liouville":
        corner = math.hypot(
            max(abs(domain.xmin), abs(domain.xmax)),
            max(abs(domain.ymin), abs(domain.ymax)),
        )
        if corner >= 1.0:
            raise DomainError(
                "liouville-source domain must close inside the unit disk; "
                f"farthest corner has |z| = {corner:.6f}"
            )
    if config.rho0_source == "solved":
        solver = config.resolved_solver_domain()
        hs = max(solver.hx, solver.hy)
        if abs(solver.hx - solver.hy) > 1e-12 * hs:
            raise DomainError("solver grid must have square cells")
        eps = 1e-9
        if (
            solver.xmin > domain.xmin + eps
            or solver.xmax < domain.xmax - eps
            or solver.ymin > domain.ymin + eps
            or solver.ymax < domain.ymax - eps
        ):
            raise DomainError("solver rectangle must contain the surface rectangle")
        if hs > min(domain.hx, domain.hy) / 2.0 + eps:
            raise DomainError(
                "solver spacing must be at most half the surface spacing "
                f"(got {hs:.6g} vs surface {min(domain.hx, domain.hy):.6g})"
            )
        if config.bc == "liouville":
            corner = math.hypot(
                max(abs(solver.xmin), abs(solver.xmax)),
                max(abs(solver.ymin), abs(solver.ymax)),
            )
            if corner >= 1.0:
                raise DomainError(
                    "liouville boundary data requires the solver rectangle "
                    "to close inside the unit disk"
                )


def serialize(config):
    """Canonical JSON text of a RunConfig (sorted keys, round-trips)."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path):
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

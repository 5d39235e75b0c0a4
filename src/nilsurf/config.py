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
      "tolerances": {"margin": 2, "threshold_scale": 1.0},
      "outputs": {"mesh": "surface_t{t}.obj", "report": "report.json",
                  "solution": "solution.csv"}
    }

Only "potential" and "domain" are required; everything else defaults as
shown.  The mesh pattern's "{t}" stands for each t written with six
decimals (`mesh_path`).  The output paths are not compared here:
pipeline.check_writes refuses a collision when a command runs.  Q0
coefficients may be written as [re, im] pairs or plain numbers.  The
solved source accepts "bc" as a constant (number) or the
string "liouville" (boundary data sampled from the closed-form density).
When "solver_domain" is omitted it defaults to the surface domain padded
by floor((n - 1)/2) surface spacings on every side, at the surface
spacing: 2n - 1 nodes per axis for odd n (GridSpec.padded).  That default
serves two purposes.  Every surface node is a solver node, so the march
samples the density at nodes and at midpoints along one axis, where the
solved source's fourth-order interpolation reads 4 nodes; with the
fourth-order solve (pde.deferred_correction) the surface spacing is fine
enough.  And pushing the artificial Dirichlet boundary away from the
surface window on every side keeps the boundary's corner kinks — where
the constant boundary data is incompatible with the nonzero right-hand
side — out of the region whose derivatives feed the surface, also for a
window with an edge or a corner at z = 0.  An explicit solver domain must
contain the surface rectangle at no more than its spacing.  Every grid,
that default included, has at most MAX_NODES nodes per axis.

The document holds what a run takes as input: the potential, the grids,
the t family, the residual check's two tolerances and the output paths.
The numerical gates are module constants, not keys: the admissibility
gate (frame.ADMISSIBILITY_THRESHOLD), the singular-frame gate
(mat2.SINGULAR_TOL), the matrix-shape gate (surface.SHAPE_TOL), the
residual check's gates (residuals.DEGENERATE_TOL, ANGLE_CUTOFF and
RESIDUAL_FLOOR) and the Newton stopping rule (pde.NEWTON_TOL,
pde.NEWTON_MAX_ITER).  A document that still sets a retired key
("solver", or "shape", "flatness", "angle_cutoff" or "residual_floor"
under "tolerances") is rejected as an unknown key.

Every optional key of "tolerances" and "outputs" is stated once, as a
RunConfig field made by `_option` (its section, key and validator; its
default lives in DEFAULT_*).  OPTIONS collects those fields into the one
table that parse_config and RunConfig.to_dict read.  The tolerances are
the residual check's margin and threshold scale, which `check` also takes
as flags and run_check and residuals.verify_surface as keywords;
check_tolerances applies the same validators there, so a value a config
file may not hold is refused too.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DomainError, SchemaError
from .pde import SPACING_RTOL
from .potentials import MAX_Q0_DEGREE
from .stencils import square_in_range

DEFAULT_T_VALUES = (0.0, math.pi / 4.0, math.pi / 2.0)
DEFAULT_TOLERANCES = {"margin": 2, "threshold_scale": 1.0}
DEFAULT_OUTPUTS = {
    "mesh": "surface_t{t}.obj",
    "report": "report.json",
    "solution": "solution.csv",
}
_DEFAULTS = {"tolerances": DEFAULT_TOLERANCES, "outputs": DEFAULT_OUTPUTS}
MIN_NODES = 9
#: Most nodes per axis of any grid: the surface domain, an explicit solver
#: domain, and the default solver grid of n + 2 floor((n - 1)/2) nodes (so a
#: solved source with the default solver grid takes at most 1025 surface
#: nodes per axis).
MAX_NODES = 2049


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(path, "expected a finite number")
    return value


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SchemaError(path, "expected an integer")
    return int(value)


def _positive(value, path):
    value = _as_float(value, path)
    if value <= 0:
        raise SchemaError(path, "must be positive")
    return value


def _at_least_one(value, path):
    value = _as_int(value, path)
    if value < 1:
        raise SchemaError(path, "must be >= 1")
    return value


def _nonempty_string(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError(path, "expected a nonempty string")
    return value


def _option(section, key, check):
    """RunConfig field of the optional key section.key, validated by check."""
    return field(
        default=_DEFAULTS[section][key],
        metadata={"key": (section, key), "check": check},
    )


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
        return asdict(self)

    def padded(self):
        """The rectangle padded by floor((n - 1)/2) spacings on every side.

        The spacing stays, so every node is a node of the padded grid (up
        to rounding), which has 2n - 1 nodes per axis for odd n and 2n - 2
        for even n.  A side moves out by at most half the width, so the
        corner farthest from the origin is no farther out than that of
        the rectangle doubled about the origin (which contains z = 0).
        """
        px, py = (self.nx - 1) // 2, (self.ny - 1) // 2
        # each pad as width * count / intervals: exact for dyadic widths
        dx = (self.xmax - self.xmin) * px / (self.nx - 1)
        dy = (self.ymax - self.ymin) * py / (self.ny - 1)
        return GridSpec(
            xmin=self.xmin - dx,
            xmax=self.xmax + dx,
            ymin=self.ymin - dy,
            ymax=self.ymax + dy,
            nx=self.nx + 2 * px,
            ny=self.ny + 2 * py,
        )

    def farthest_corner(self):
        """|z| of the rectangle's corner farthest from the origin."""
        return math.hypot(
            max(abs(self.xmin), abs(self.xmax)), max(abs(self.ymin), abs(self.ymax))
        )


@dataclass
class RunConfig:
    """Validated run configuration with all defaults resolved.

    Every field compares with ==, so two configs compare as values: Q0's
    coefficients are a tuple of complex, and a solved source's default
    solver grid is stored by parse_config, as its serialized copy states it.
    """

    q0_coefficients: tuple  # of complex, ascending
    rho0_source: str
    domain: GridSpec
    rho0_value: float = 1.0
    solver_domain: GridSpec = None  # a solved source's, stored by parse_config
    bc: object = 0.0
    t_values: tuple = DEFAULT_T_VALUES
    margin: int = _option("tolerances", "margin", _at_least_one)
    threshold_scale: float = _option("tolerances", "threshold_scale", _positive)
    mesh_pattern: str = _option("outputs", "mesh", _nonempty_string)
    report_path: str = _option("outputs", "report", _nonempty_string)
    solution_path: str = _option("outputs", "solution", _nonempty_string)
    #: The file load_config read (None from parse_config).  Not a config
    #: key: no part of equality, to_dict or the report.
    path: str = field(default=None, compare=False)

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
            potential["rho0"]["solver_domain"] = self.solver_domain.to_dict()
        out = {
            "potential": potential,
            "domain": self.domain.to_dict(),
            "t_values": list(self.t_values),
        }
        for (section, key), option in OPTIONS.items():
            out.setdefault(section, {})[key] = getattr(self, option.name)
        return out


#: The optional keys: (section, key) -> the RunConfig field that holds it.
OPTIONS = {f.metadata["key"]: f for f in fields(RunConfig) if "key" in f.metadata}


def check_tolerances(**values):
    """The residual check's tolerances, validated by their tolerances.* rules.

    Keys left out take their DEFAULT_TOLERANCES value.  Raises TypeError
    on an unknown keyword and SchemaError on a value a config file may not
    hold: not finite, not positive (scale) or below 1 (margin).
    """
    unknown = sorted(set(values) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise TypeError(f"unexpected tolerance keyword(s): {', '.join(unknown)}")
    return {
        key: OPTIONS["tolerances", key].metadata["check"](
            values.get(key, default), f"tolerances.{key}"
        )
        for key, default in DEFAULT_TOLERANCES.items()
    }


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


def _parse_grid(raw, path):
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
    if grid.nx < MIN_NODES or grid.ny < MIN_NODES:
        raise SchemaError(f"{path}.nx", f"node counts must be >= {MIN_NODES}")
    _at_most_max_nodes(grid, path)
    _in_square_range(grid, path)
    return grid


def _in_square_range(grid, path):
    """Refuse a grid whose width or spacing fails square_in_range.

    np.linspace also overflows on a width past the float range.
    """
    for key, low, high, n in (
        ("xmin", grid.xmin, grid.xmax, grid.nx),
        ("ymin", grid.ymin, grid.ymax, grid.ny),
    ):
        width = high - low
        for length in (width, width / (n - 1)):
            if not square_in_range(length):
                raise SchemaError(
                    f"{path}.{key}",
                    f"width {width:.3e} over {n - 1} intervals is out of range: "
                    "the square of the width or spacing, or its reciprocal, "
                    "is zero or not finite",
                )


def _at_most_max_nodes(grid, path, what="node count"):
    for key in ("nx", "ny"):
        if getattr(grid, key) > MAX_NODES:
            raise SchemaError(f"{path}.{key}", f"{what} must be <= {MAX_NODES}")


def _parse_q0(raw, path):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a nonempty list of coefficients")
    if len(raw) > MAX_Q0_DEGREE + 1:
        raise SchemaError(
            path,
            f"at most {MAX_Q0_DEGREE + 1} coefficients "
            f"(degree <= {MAX_Q0_DEGREE}) supported",
        )
    coeffs = []
    for k, entry in enumerate(raw):
        here = f"{path}[{k}]"
        pair = entry if isinstance(entry, list) else [entry, 0.0]
        if len(pair) != 2:
            raise SchemaError(here, "expected a number or an [re, im] pair")
        coeffs.append(complex(*(_as_float(v, here) for v in pair)))
    return tuple(coeffs)


def mesh_path(pattern, t):
    """The mesh file of the member at t: pattern with {t} written as %.6f."""
    return pattern.replace("{t}", f"{t:.6f}")


def parse_config(text):
    """Parse and validate a JSON run configuration.

    Raises SchemaError (with the path of the offending key) for structural
    problems and DomainError for geometric ones (the surface domain must
    contain the base point z = 0; a liouville-source domain must close
    inside the unit disk; a solved-source solver rectangle must contain the
    surface rectangle at no more than its spacing).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("<document>", "top level must be an object")
    _check_keys(raw, {"potential", "domain", "t_values", *_DEFAULTS}, "")

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
        rho0_value = _positive(
            _require(rho0_raw, "value", "potential.rho0"), "potential.rho0.value"
        )
    elif source == "liouville":
        _check_keys(rho0_raw, {"source"}, "potential.rho0")
        if any(q0):
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
    if source == "solved" and solver_domain is None:
        solver_domain = domain.padded()
        _at_most_max_nodes(
            solver_domain,
            "domain",
            "the default solver grid's node count (n + 2 floor((n - 1)/2))",
        )
        _in_square_range(solver_domain, "domain")

    t_values = tuple(DEFAULT_T_VALUES)
    if "t_values" in raw:
        tv = raw["t_values"]
        if not isinstance(tv, list) or not tv:
            raise SchemaError("t_values", "expected a nonempty list of reals")
        t_values = tuple(_as_float(v, f"t_values[{k}]") for k, v in enumerate(tv))
        for k, t in enumerate(t_values):
            # the frames read t through exp(2 i t)
            if not math.isfinite(2.0 * t):
                raise SchemaError(f"t_values[{k}]", "2 t must be finite")

    for section in _DEFAULTS:
        if not isinstance(raw.get(section, {}), dict):
            raise SchemaError(section, "expected object")
        _check_keys(raw.get(section, {}), set(_DEFAULTS[section]), section)
    options = {
        option.name: option.metadata["check"](
            raw.get(section, {}).get(key, option.default), f"{section}.{key}"
        )
        for (section, key), option in OPTIONS.items()
    }
    if len(t_values) > 1 and "{t}" not in options["mesh_pattern"]:
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
        **options,
    )
    _validate_geometry(config)
    return config


def _validate_geometry(config):
    """Cross-field geometric validation (DomainError on failure)."""
    domain = config.domain
    if not domain.contains_origin():
        raise DomainError("surface domain must contain the base point z = 0")
    if config.rho0_source == "liouville":
        corner = domain.farthest_corner()
        if corner >= 1.0:
            raise DomainError(
                "liouville-source domain must close inside the unit disk; "
                f"farthest corner has |z| = {corner:.6f}"
            )
    if config.rho0_source == "solved":
        solver = config.solver_domain
        hs = max(solver.hx, solver.hy)
        if abs(solver.hx - solver.hy) > SPACING_RTOL * hs:
            raise DomainError("solver grid must have square cells")
        h = min(domain.hx, domain.hy)
        eps = 1e-9 * h  # rounding slack, at the window's scale
        if (
            solver.xmin > domain.xmin + eps
            or solver.xmax < domain.xmax - eps
            or solver.ymin > domain.ymin + eps
            or solver.ymax < domain.ymax - eps
        ):
            raise DomainError("solver rectangle must contain the surface rectangle")
        if hs > h + eps:
            raise DomainError(
                "solver spacing must be at most the surface spacing "
                f"(got {hs:.6g} vs surface {h:.6g})"
            )
        if config.bc == "liouville":
            if solver.farthest_corner() >= 1.0:
                raise DomainError(
                    "liouville boundary data requires the solver rectangle "
                    "to close inside the unit disk"
                )


def serialize(config):
    """Canonical JSON text of a RunConfig (sorted keys, round-trips)."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path):
    """Read and parse a configuration file; the RunConfig records its path."""
    with open(path, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    config.path = path
    return config

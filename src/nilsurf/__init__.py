"""nilsurf: minimal surfaces in the 3-dimensional Heisenberg group.

The package generates surfaces from potential data (a positive conformal
density rho0 and a holomorphic polynomial Q0) by integrating a flat
connection and applying the Sym-Bobenko immersion formula, and it verifies
any discrete surface — generated or external — with an independent
differential-geometry residual suite (conformality, minimality, quadratic-
differential holomorphy, Gauss-map harmonicity).

Typical library use:

    import numpy as np
    from nilsurf import Potential, generate_surface, verify_surface

    pot = Potential.constant(1.0, q0_coeffs=(0.25,))
    x = y = np.linspace(-1.0, 1.0, 65)
    surf = generate_surface(pot, x, y, t=0.0)
    report = verify_surface(surf, potential=pot)
    print(report.maxima)

The `nilsurf` command line exposes the same pipeline plus file formats;
see the README.
"""

from .config import GridSpec, RunConfig, load_config, parse_config, serialize
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
from .frame import (
    ConnectionPair,
    FrameField,
    connection_at,
    integrate_grid,
)
from .pde import SolveResult, deferred_correction, newton_solve, pde_residual
from .pipeline import (
    build_potential,
    classify_report,
    residual_thresholds,
    run_check,
    run_generate,
    run_solve,
    solve_density,
)
from .potentials import Potential, liouville_exact
from .residuals import (
    RESIDUAL_KEYS,
    ResidualReport,
    verify_surface,
)
from .surface import (
    SurfaceGrid,
    generate_surface,
    surface_from_frame,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectionPair",
    "DegenerateNode",
    "DomainError",
    "FrameField",
    "GridSpec",
    "LinearSolveFailure",
    "MaxIterExceeded",
    "NilsurfError",
    "NonFlatInput",
    "Potential",
    "PotentialDataError",
    "RESIDUAL_KEYS",
    "ResidualReport",
    "RunConfig",
    "SchemaError",
    "ShapeViolation",
    "SingularFrameError",
    "SolveResult",
    "SurfaceGrid",
    "build_potential",
    "classify_report",
    "connection_at",
    "deferred_correction",
    "generate_surface",
    "integrate_grid",
    "liouville_exact",
    "load_config",
    "newton_solve",
    "parse_config",
    "pde_residual",
    "residual_thresholds",
    "run_check",
    "run_generate",
    "run_solve",
    "serialize",
    "solve_density",
    "surface_from_frame",
    "verify_surface",
    "__version__",
]

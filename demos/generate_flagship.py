"""Flagship run: solve a density, integrate frames, emit a verified surface.

This walks the full pipeline once, by hand, with commentary:

  1. pick potential data (Q0, rho0) — here Q0(z) = z/4 with rho0 solved
     from the integrability PDE so the pair is admissible;
  2. integrate the Lax connection over the grid with coupled RK4 marches;
  3. assemble the immersion with the Sym-Bobenko formula;
  4. verify minimality/conformality with the residual suite;
  5. export an OBJ mesh and a JSON report.

The same run is available as a one-liner once a config file exists:

    nilsurf generate demos/output/flagship.json
"""

import json
import os

import numpy as np

from nilsurf.config import parse_config
from nilsurf.outputs import export_obj, write_json
from nilsurf.pipeline import build_potential
from nilsurf.residuals import verify_surface
from nilsurf.surface import generate_surface

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# The run's configuration; step 5 writes it out for the CLI.
n = 65
config = {
    "potential": {
        "q0_coefficients": [0.0, [0.25, 0.0]],  # Q0 = 0 + 0.25 z
        "rho0": {"source": "solved", "bc": 0.0},
    },
    "domain": {
        "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
        "nx": n, "ny": n,
    },
    "t_values": [0.0],
    "outputs": {
        "mesh": os.path.join(OUT, "flagship_cli.obj"),
        "report": os.path.join(OUT, "flagship_cli_report.json"),
        "solution": os.path.join(OUT, "flagship_cli_solution.csv"),
    },
}
cfg = parse_config(json.dumps(config))

# ---------------------------------------------------------------------------
# 1. Potential data.  Q0 = z/4 is holomorphic; the matching density rho0
#    comes from the program's solve of the integrability PDE: a Newton/CG
#    solve of the 5-point system and one deferred correction to fourth
#    order, on the default solver grid, the surface domain padded by half
#    its width on every side (so the Dirichlet edge stays away from the
#    surface window) at the surface spacing.
# ---------------------------------------------------------------------------
potential, summary, result = build_potential(cfg)
grid = summary["grid"]
print(f"density solve on {grid['nx']}x{grid['ny']}: "
      f"{summary['newton_iterations']} Newton steps, then "
      f"{result.newton_iterations} for the correction; corrected residual "
      f"{summary['final_residual']:.2e}")
print("5-point residual history:",
      ", ".join(f"{v:.2e}" for v in summary["residual_history"]))
surface_axis, _ = cfg.domain.axes()

# ---------------------------------------------------------------------------
# 2+3. Integrate the frames and assemble the immersion at t = 0.  The
#      march checks admissibility first and pins the base point exactly:
#      f(0) = (0, 0, 0).
# ---------------------------------------------------------------------------
surf = generate_surface(potential, surface_axis, surface_axis, t=0.0)
print(f"\nsurface {n}x{n}: det deviation {surf.det_deviation:.2e}, "
      f"shape deviation {surf.shape_deviation:.2e}")
print(f"base node: F = {surf.F[n // 2, n // 2]}, "
      f"height = {surf.height[n // 2, n // 2]}")

# ---------------------------------------------------------------------------
# 4. Verify.  Every residual class should sit at the h^2 truncation scale
#    of the finite differences, far below the thresholds the report holds.
# ---------------------------------------------------------------------------
report = verify_surface(surf, potential=potential)
print(f"\nverification: {'PASS' if report.passed else 'FAIL'}")
for key, value in report.maxima.items():
    shown = "n/a" if np.isnan(value) else f"{value:.3e}"
    print(f"  {key:<24} {shown}")

# ---------------------------------------------------------------------------
# 5. Export.
# ---------------------------------------------------------------------------
mesh = export_obj(surf, os.path.join(OUT, "flagship_t0.obj"))
write_json(report.to_dict(), os.path.join(OUT, "flagship_report.json"))
print(f"\nmesh -> {mesh.path} ({mesh.vertex_count} vertices, "
      f"{mesh.face_count} faces)")
print(f"report -> {os.path.join(OUT, 'flagship_report.json')}")

# A config file that reproduces this run through the CLI:
with open(os.path.join(OUT, "flagship.json"), "w", encoding="utf-8") as fh:
    json.dump(config, fh, indent=2)
print(f"config -> {os.path.join(OUT, 'flagship.json')} "
      "(run: nilsurf generate <that file>)")

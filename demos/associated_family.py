"""Sweep the associated family and watch what the phase actually does.

The family parameter t multiplies the quadratic differential by
exp(2it).  Three facts worth seeing with numbers:

  * every member is an equally good minimal surface (the residual suite
    does not care about t);
  * |Q| measured from the immersion is pointwise independent of t, at
    the h^2 truncation scale;
  * for a monomial Q0 = c z^m the phase is absorbed by a domain rotation
    with (m + 2) theta = 2t, so the t = pi/2 member of the constant
    potential is the base surface spun a quarter turn — the density
    fields match under np.rot90 at machine precision, and the sweep is
    pi-periodic.
"""

import os

import numpy as np

from nilsurf.outputs import export_obj
from nilsurf.potentials import Potential
from nilsurf.residuals import verify_surface
from nilsurf.surface import generate_surface

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

n = 33
axis = np.arange(-(n // 2), n // 2 + 1) * (1.0 / (n - 1))
potential = Potential.constant(1.0, (0.25,))

t_values = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
members = generate_surface(potential, axis, axis, t_values)

# ---------------------------------------------------------------------------
# Verify every member and collect the fields we want to compare.
# ---------------------------------------------------------------------------
reports = [
    verify_surface(s, potential=potential, keep_fields=True) for s in members
]

print("t        worst residual   max | |Q(t)| - |Q(0)| |   mesh")
base_q = np.abs(reports[0].fields["quadratic_differential"])
for t, surf, report in zip(t_values, members, reports):
    worst = max(v for v in report.maxima.values() if not np.isnan(v))
    q_drift = float(np.nanmax(np.abs(
        np.abs(report.fields["quadratic_differential"]) - base_q
    )[2:-2, 2:-2]))
    mesh = export_obj(surf, os.path.join(OUT, f"family_t{t:.4f}.obj"))
    print(f"{t:>7.4f}  {worst:.3e}        {q_drift:.3e}             "
          f"{os.path.basename(mesh.path)}")

# ---------------------------------------------------------------------------
# The quarter-turn identity at t = pi/2 (constant Q0 has m = 0, so
# theta = t): rotate the density field of the last member back by 90
# degrees and it reproduces the base member far below truncation error.
# ---------------------------------------------------------------------------
rho_base = reports[0].fields["metric_density"]
rho_quarter = reports[-1].fields["metric_density"]
aligned = float(np.nanmax(np.abs(
    np.rot90(rho_quarter, 1) - rho_base
)[2:-2, 2:-2]))
literal = float(np.nanmax(np.abs(rho_quarter - rho_base)[2:-2, 2:-2]))
print(f"\ndensity fields, t=pi/2 vs t=0:")
print(f"  compared pointwise:          {literal:.3e}   (different "
      "parameterizations!)")
print(f"  compared after a 90deg turn: {aligned:.3e}   (same surface)")

# ---------------------------------------------------------------------------
# pi-periodicity: t and t + pi give the same immersion.
# ---------------------------------------------------------------------------
wrapped = generate_surface(potential, axis, axis, np.pi / 8 + np.pi)
gap = max(
    float(np.max(np.abs(wrapped.F - members[1].F))),
    float(np.max(np.abs(wrapped.height - members[1].height))),
)
print(f"\npi-periodicity: max coordinate gap between t=pi/8 and "
      f"t=pi/8+pi is {gap:.3e}")

"""Benchmark the density solver against the Liouville closed form.

With Q0 = 0 the integrability PDE reduces to the Liouville equation,
whose solution on the unit disk is rho0 = 16 / (1 - |z|^2)^2.  Feeding
the exact boundary values to the Newton/CG solver and refining the grid
shows clean second-order convergence of u = log(rho0), plus the solver
internals: a strictly decreasing Newton residual history started from a
harmonic extension of the boundary data, and the conjugate-gradient
iterations of each linear solve.  Each Newton step's CG solve stops at
its Eisenstat-Walker forcing term, so the early steps take one or two
iterations and only the last ones solve more accurately.
"""

import os

import numpy as np

from nilsurf.outputs import write_solution_csv
from nilsurf.pde import liouville_exact, newton_solve

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

print("grid      h          max |u - u_exact|   order   Newton steps"
      "   CG per solve")
errors = {}
last = None
for n in (17, 33, 65, 129):
    axis = np.arange(-(n // 2), n // 2 + 1) * (1.2 / (n - 1))
    z = axis[None, :] + 1j * axis[:, None]
    exact = np.log(liouville_exact(z))
    result = newton_solve(
        np.zeros(z.shape, complex), exact, axis, axis, tol=1e-10, max_iter=50
    )
    errors[n] = float(np.max(np.abs(result.u - exact)))
    order = "" if last is None else f"{np.log2(errors[last] / errors[n]):.2f}"
    print(f"{n:>3}x{n:<4} {1.2 / (n - 1):.5f}    {errors[n]:.3e}"
          f"          {order:>5}   {result.newton_iterations:>12}"
          f"   {result.cg_iterations}")
    last = n

print("\nNewton residual history on the finest grid (CG iterations of the")
print("linear solve that produced each iterate; step 0 is the harmonic fill):")
for k, (value, cg) in enumerate(
    zip(result.residual_history, result.cg_iterations)
):
    print(f"  step {k}: {value:.3e}   CG {cg}")

path = os.path.join(OUT, "liouville_density.csv")
write_solution_csv(result, path)
print(f"\nsolved grid -> {path}")
print("(the same solve is available as: nilsurf solve-gauss <config>)")

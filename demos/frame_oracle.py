"""Convergence study: the RK4 frame march against an exact oracle.

For the constant potential the Lax connection matrices U and V commute
and are independent of position, so the frame has the closed form
Psi(z) = exp(zU + conj(z)V) — an oracle the numerical march can be held
against at every node.  The march carries the frame and its first two
family-parameter derivatives as one coupled system; derivatives of the
matrix exponential come from the standard block-triangular trick:

    exp([[M, M_t], [0, M]]) has d/dt exp(M) in its (1,2) block,

and the 3x3-block version yields the second derivative.  Halving the
grid spacing should cut all three errors by ~16 (RK4 is fourth order),
which the table below confirms.
"""

import numpy as np
import scipy.linalg

from nilsurf import mat2
from nilsurf.frame import connection_at, integrate_grid
from nilsurf.potentials import Potential


def exponential_oracle(potential, z, t):
    """Frame triple for a constant potential, via a 6x6 block exponential."""
    pair = connection_at(potential, np.asarray(0.0j), t)
    u, v = pair.u, pair.v
    u_t = np.zeros((2, 2), complex)
    u_t[1, 0] = 2j * u[1, 0]
    u_tt = np.zeros((2, 2), complex)
    u_tt[1, 0] = -4.0 * u[1, 0]
    v_t = np.zeros((2, 2), complex)
    v_t[0, 1] = -2j * v[0, 1]
    v_tt = np.zeros((2, 2), complex)
    v_tt[0, 1] = -4.0 * v[0, 1]
    m = z[..., None, None] * u + np.conj(z)[..., None, None] * v
    m_t = z[..., None, None] * u_t + np.conj(z)[..., None, None] * v_t
    m_tt = z[..., None, None] * u_tt + np.conj(z)[..., None, None] * v_tt
    big = np.zeros(z.shape + (6, 6), complex)
    for k in range(3):
        big[..., 2 * k:2 * k + 2, 2 * k:2 * k + 2] = m
    big[..., 0:2, 2:4] = m_t
    big[..., 2:4, 4:6] = m_t
    big[..., 0:2, 4:6] = m_tt / 2.0
    e = scipy.linalg.expm(big)
    return e[..., 0:2, 0:2], e[..., 0:2, 2:4], 2.0 * e[..., 0:2, 4:6]


potential = Potential.constant(1.0, (0.25,))
t = np.pi / 4

print(f"constant potential (rho0=1, Q0=1/4), t = pi/4, domain [-1,1]^2\n")
print("grid        h        |Psi err|    |dPsi/dt err|  |d2Psi/dt2 err|"
      "   orders")
last = None
for n in (9, 17, 33, 65):
    axis = np.arange(-(n // 2), n // 2 + 1) * (2.0 / (n - 1))
    z = axis[None, :] + 1j * axis[:, None]
    field = integrate_grid(potential, axis, axis, t)
    psi, psi_t, psi_tt = exponential_oracle(potential, z, t)
    errs = (
        float(np.max(np.abs(field.psi - psi))),
        float(np.max(np.abs(field.psi_t - psi_t))),
        float(np.max(np.abs(field.psi_tt - psi_tt))),
    )
    if last is None:
        orders = ""
    else:
        orders = " ".join(f"{np.log2(a / b):.2f}" for a, b in zip(last, errs))
    print(f"{n:>3}x{n:<5} {2.0 / (n - 1):.5f}  {errs[0]:.3e}    "
          f"{errs[1]:.3e}      {errs[2]:.3e}     {orders}")
    last = errs

print("\ndeterminant deviation on the finest grid: "
      f"{np.max(np.abs(mat2.det(mat2.entries(field.psi)) - 1.0)):.3e} "
      "(flat connections preserve det = 1)")

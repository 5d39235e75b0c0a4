"""Frame-field integration of the flat connection defined by a potential.

For potential data (rho0, Q0) and a family parameter t, the moving frame
Psi solves the linear system

    dPsi = Psi (U dz + V dz̄),   Psi(0) = identity,

with connection matrices (L = log rho0, e = exp(2 i t))

    U = 1/4 [[ L_z,            i sqrt(rho0) ],
             [ -4 i Q0 e / sqrt(rho0), -L_z ]],

    V = 1/4 [[ -L_z̄,  4 i conj(Q0) conj(e) / sqrt(rho0) ],
             [ -i sqrt(rho0),  L_z̄ ]].

t enters only through e = exp(2 i t), so the t-derivatives of U and V are
again sparse: dU/dt multiplies the (2,1) entry by 2i, dV/dt multiplies the
(1,2) entry by -2i, and the second derivatives multiply those entries by
-4.  The integrator marches the triple (Psi, dPsi/dt, d2Psi/dt2) jointly
with classical RK4 along grid segments, starting from the exact base point
z = 0 where the triple is (identity, 0, 0).

Admissibility of the potential is what makes the connection flat
(curvature dz̄-derivative of U minus dz-derivative of V minus [U, V]
vanishes), hence the integration path-independent.  The package checks
admissibility in one place, `_check_admissibility`: the potential's
integrability residual must stay within ADMISSIBILITY_THRESHOLD at every
grid node.  `integrate_grid` runs that gate before marching and exposes a
`path_order` switch so row-major and column-major sweeps can be compared
directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFlatInput

FLATNESS_PROBE = 1e-4

#: Bound on the integrability residual at every node (analytic residuals
#: are ~1e-16, stored solve residuals <= solver tol; inadmissible data is
#: O(0.1)).
ADMISSIBILITY_THRESHOLD = 1e-6


@dataclass
class ConnectionPair:
    """Connection matrices and their first two t-derivatives at sample points.

    Each field has shape (..., 2, 2) matching the shape of the evaluation
    points.  u/v multiply dz/dz̄ in the connection form.
    """

    u: np.ndarray
    v: np.ndarray
    u_t: np.ndarray
    v_t: np.ndarray
    u_tt: np.ndarray
    v_tt: np.ndarray


def connection_at(potential, z, t):
    """Evaluate the connection matrices and t-derivatives at points z."""
    z = np.asarray(z, dtype=complex)
    root = np.sqrt(potential.rho0(z))
    lz = potential.dlog_rho0_dz(z)
    q = potential.q0(z)
    phase = np.exp(2j * t)
    shape = z.shape + (2, 2)
    u = np.zeros(shape, dtype=complex)
    v = np.zeros(shape, dtype=complex)
    u[..., 0, 0] = lz / 4.0
    u[..., 0, 1] = 0.25j * root
    u[..., 1, 0] = -1j * q * phase / root
    u[..., 1, 1] = -lz / 4.0
    v[..., 0, 0] = -np.conj(lz) / 4.0
    v[..., 0, 1] = 1j * np.conj(q) * np.conj(phase) / root
    v[..., 1, 0] = -0.25j * root
    v[..., 1, 1] = np.conj(lz) / 4.0
    u_t = np.zeros(shape, dtype=complex)
    u_t[..., 1, 0] = 2j * u[..., 1, 0]
    u_tt = np.zeros(shape, dtype=complex)
    u_tt[..., 1, 0] = -4.0 * u[..., 1, 0]
    v_t = np.zeros(shape, dtype=complex)
    v_t[..., 0, 1] = -2j * v[..., 0, 1]
    v_tt = np.zeros(shape, dtype=complex)
    v_tt[..., 0, 1] = -4.0 * v[..., 0, 1]
    return ConnectionPair(u, v, u_t, v_t, u_tt, v_tt)


def flatness_residual(potential, z, t, probe=FLATNESS_PROBE):
    """Curvature of the connection at points z by central differences.

    Returns the matrix field

        d(U)/dz̄ - d(V)/dz - [U, V]

    sampled with central differences of step `probe` in x and y.  For
    admissible analytic data this vanishes to O(probe^2); for inadmissible
    data it is O(1).  An independent check of `connection_at` against the
    admissibility condition; the integration gate is `_check_admissibility`.
    """
    z = np.asarray(z, dtype=complex)

    def u_of(w):
        return connection_at(potential, w, t).u

    def v_of(w):
        return connection_at(potential, w, t).v

    ux = (u_of(z + probe) - u_of(z - probe)) / (2.0 * probe)
    uy = (u_of(z + 1j * probe) - u_of(z - 1j * probe)) / (2.0 * probe)
    vx = (v_of(z + probe) - v_of(z - probe)) / (2.0 * probe)
    vy = (v_of(z + 1j * probe) - v_of(z - 1j * probe)) / (2.0 * probe)
    u_zbar = (ux + 1j * uy) / 2.0
    v_z = (vx - 1j * vy) / 2.0
    pair = connection_at(potential, z, t)
    bracket = pair.u @ pair.v - pair.v @ pair.u
    return u_zbar - v_z - bracket


def _omega_triple(potential, z, dz, t):
    """Connection form increments (omega, d_t omega, d_tt omega) for step dz."""
    pair = connection_at(potential, z, t)
    d = np.asarray(dz, dtype=complex)[..., None, None]
    db = np.conj(d)
    return (
        pair.u * d + pair.v * db,
        pair.u_t * d + pair.v_t * db,
        pair.u_tt * d + pair.v_tt * db,
    )


def _rhs(state, omega):
    """Derivative of (Psi, Psi_t, Psi_tt) along the step direction."""
    psi, psi_t, psi_tt = state
    w, w_t, w_tt = omega
    return (
        psi @ w,
        psi_t @ w + psi @ w_t,
        psi_tt @ w + 2.0 * (psi_t @ w_t) + psi @ w_tt,
    )


def rk4_step(potential, state, z0, z1, t):
    """One classical RK4 step of the frame triple from z0 to z1.

    state is the tuple (psi, psi_t, psi_tt) of arrays with trailing (2, 2)
    axes; z0, z1 broadcast against their leading axes.  The two interior
    stages share the midpoint connection sample, so each step costs three
    connection evaluations.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    dz = z1 - z0
    omega0 = _omega_triple(potential, z0, dz, t)
    omega_mid = _omega_triple(potential, z0 + dz / 2.0, dz, t)
    omega1 = _omega_triple(potential, z1, dz, t)
    k1 = _rhs(state, omega0)
    k2 = _rhs(tuple(s + 0.5 * k for s, k in zip(state, k1)), omega_mid)
    k3 = _rhs(tuple(s + 0.5 * k for s, k in zip(state, k2)), omega_mid)
    k4 = _rhs(tuple(s + k for s, k in zip(state, k3)), omega1)
    return tuple(
        s + (a + 2.0 * b + 2.0 * c + d) / 6.0
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def _advance(potential, state, z0, z1, t, substeps):
    """March from z0 to z1 in `substeps` equal RK4 steps."""
    if substeps == 1:
        return rk4_step(potential, state, z0, z1, t)
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    for k in range(substeps):
        a = z0 + (z1 - z0) * (k / substeps)
        b = z0 + (z1 - z0) * ((k + 1) / substeps)
        state = rk4_step(potential, state, a, b, t)
    return state


@dataclass
class FrameField:
    """Frame triple integrated over a rectangular grid.

    Attributes:
      x, y    grid axes (1-D)
      t       family parameter the frames were integrated at
      psi     frames, shape (len(y), len(x), 2, 2)
      psi_t   first t-derivative of the frames (same shape)
      psi_tt  second t-derivative (same shape)
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    psi: np.ndarray
    psi_t: np.ndarray
    psi_tt: np.ndarray

    @property
    def z_nodes(self):
        return self.x[None, :] + 1j * self.y[:, None]

    def det_deviation(self):
        """Max deviation of det(psi) from 1 (a flat-integration invariant)."""
        det = (
            self.psi[..., 0, 0] * self.psi[..., 1, 1]
            - self.psi[..., 0, 1] * self.psi[..., 1, 0]
        )
        return float(np.max(np.abs(det - 1.0)))


def _check_admissibility(potential, z_nodes):
    """Refuse potential data that is not admissible at the nodes z_nodes.

    Evaluates `potential.integrability_residual` at every node: the closed
    form for analytic sources, the stored Newton residual for solved ones.
    Returns the worst magnitude; raises NonFlatInput when it exceeds
    ADMISSIBILITY_THRESHOLD.
    """
    first, second = potential.integrability_residual(z_nodes)
    worst = max(float(np.max(np.abs(first))), float(np.max(np.abs(second))))
    if worst > ADMISSIBILITY_THRESHOLD:
        raise NonFlatInput(
            f"integrability residual {worst:.3e} exceeds "
            f"{ADMISSIBILITY_THRESHOLD:.0e}; potential data is not admissible"
        )
    return worst


def _outward(n, start):
    """(from, to) index pairs marching away from start in both directions."""
    return [(k - 1, k) for k in range(start + 1, n)] + [
        (k + 1, k) for k in range(start - 1, -1, -1)
    ]


def integrate_grid(
    potential,
    x,
    y,
    t,
    path_order="row-major",
    substeps=1,
    check_flatness=True,
):
    """Integrate the frame triple over the grid x × y at parameter t.

    The march starts from the exact base point z = 0 with the triple
    (identity, 0, 0); the grid must contain 0 (the nearest node is reached
    by a single starting step when 0 is not itself a node).  With
    path_order "row-major" the sweep fills the base row sequentially and
    then advances whole rows in batched steps along y; "column-major" does
    the transpose.  For flat connections the two sweeps agree to RK4
    accuracy, which is the practical test of path independence.

    substeps > 1 subdivides every segment into that many equal RK4 steps,
    scaling the local error by substeps^-4.

    Returns a FrameField.  Raises NonFlatInput when the admissibility gate
    trips (disable with check_flatness=False to study that failure mode)
    and DomainError when the grid does not contain the base point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if path_order not in ("row-major", "column-major"):
        raise ValueError(f"unknown path order {path_order!r}")
    if x[0] > 0.0 or x[-1] < 0.0 or y[0] > 0.0 or y[-1] < 0.0:
        raise DomainError("integration grid must contain the base point z = 0")
    n_x, n_y = x.size, y.size
    z_nodes = x[None, :] + 1j * y[:, None]
    if check_flatness:
        _check_admissibility(potential, z_nodes)

    identity = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    psi = np.zeros((n_y, n_x, 2, 2), dtype=complex)
    psi_t = np.zeros_like(psi)
    psi_tt = np.zeros_like(psi)
    i0 = int(np.argmin(np.abs(x)))
    j0 = int(np.argmin(np.abs(y)))

    start = (identity, zero, zero)
    z_base = z_nodes[j0, i0]
    if z_base != 0.0:
        start = _advance(potential, start, 0.0 + 0.0j, z_base, t, substeps)
    psi[j0, i0], psi_t[j0, i0], psi_tt[j0, i0] = start

    # Column-major marches the transposed views: writes land in psi.
    fields = (psi, psi_t, psi_tt)
    z_path, row0, col0 = z_nodes, j0, i0
    if path_order == "column-major":
        fields = tuple(f.swapaxes(0, 1) for f in fields)
        z_path, row0, col0 = z_nodes.T, i0, j0

    n_rows, n_cols = z_path.shape
    base_line = [((row0, a), (row0, b)) for a, b in _outward(n_cols, col0)]
    for src, dst in base_line + _outward(n_rows, row0):
        state = tuple(f[src] for f in fields)
        new = _advance(potential, state, z_path[src], z_path[dst], t, substeps)
        for f, value in zip(fields, new):
            f[dst] = value

    return FrameField(x=x, y=y, t=float(t), psi=psi, psi_t=psi_t, psi_tt=psi_tt)

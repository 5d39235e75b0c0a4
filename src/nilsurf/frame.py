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

One march serves the whole associated family.  `_sample` takes the
t-independent data (sqrt(rho0), (log rho0)_z, Q0) once per sample point,
and `_connection_entries` turns it into the nonzero entries of U and V with
the phase e as a (T, 1) factor, so every entry carries a leading axis over
the T requested t values.  The RK4 kernel works on the entries directly: a
product Psi @ omega is Psi * diag(omega) + Psi[..., ::-1] * offdiag(omega)
over the column axis, and row i of it depends only on row i of Psi.
omega_t and omega_tt are off-diagonal, with omega_tt = (-2i, +2i) times the
(0,1) and (1,0) entries of omega_t, so most of the products vanish.
`connection_at`, the dense matrices the tests compare against, is built
from the same two functions.

Only row 0 is marched.  With rho0 > 0 and real t, sqrt(rho0) is real, the
diagonal w = u00 dz - conj(u00 dz) of omega = U dz + V dz̄ is imaginary and
omega10 = conj(omega01) (v01 = conj(u10), v10 = -u01), so omega lies in
su(1,1) and the frame stays in SU(1,1): Psi = [[a, b], [conj(b), conj(a)]],
and so do Psi_t and Psi_tt because t is real.  The march state is one array
of shape (3, 2, T, n) (triple, column, t, node); after the march each
member fills row 1 as psi[1, 1] = conj(psi[0, 0]), psi[1, 0] =
conj(psi[0, 1]), and likewise for psi_t and psi_tt.  Row 1 of the full
RK4 march is that conjugate swap bitwise, up to the sign of a zero, so the
frames do not change.  The argument needs a real sqrt(rho0): `integrate_grid`
raises DomainError before the first step when a sample of it is not a real
array (NaN and inf are real, and take their usual path).  `rk4_step`
keeps the full (3, 2, 2, T, n) state, which the kernel also accepts; it
takes the starting step to a base node off z = 0, whose row 0 seeds the
march.

The potential is sampled once per march, not once per step: that data
does not depend on t or on the state, so `integrate_grid` makes one
`_sample` call on the end points of every step (the grid nodes and, with
substeps, the points between them) and one on every midpoint, before it
marches.  Each step then reads slices of those arrays and feeds them to
the RK4 kernel `_rk4`, which `rk4_step` also calls after sampling its own
three points.  A grid the potential cannot be evaluated on (past a solved
rectangle, say) therefore fails before the first step.

The outward steps run in pairs.  Along the base line, the step to column
col0 + k and the step to col0 - k are one `_rk4` call on both nodes; then
the steps to rows row0 + k and row0 - k are one call on both rows.  Where
one side is longer, its remaining steps run alone.  At a few nodes a
step's cost is NumPy's per-call overhead, so halving the calls (128
instead of 256 at 129 x 129) is what saves time.  The frames do not
change, bitwise: the kernel is entry-wise, so every node is computed from
its own source state, increment and samples, the same ones as in a march
that takes one direction at a time.

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

#: Bound on the integrability residual at every node (analytic residuals
#: are ~1e-16, stored solve residuals <= solver tol; inadmissible data is
#: O(0.1)).
ADMISSIBILITY_THRESHOLD = 1e-6

#: omega_tt over omega_t, entry by entry, in the swapped off-diagonal
#: order (1,0), (0,1) of `_omega`.
_OMEGA_TT_FACTOR = np.array([2j, -2j])[:, None, None]


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


def _sample(potential, z):
    """t-independent potential data at z: (sqrt(rho0), (log rho0)_z, Q0)."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(potential.rho0(z)), potential.dlog_rho0_dz(z), potential.q0(z)


def _connection_entries(sample, phase):
    """Nonzero entries (u00, u01, u10, v01, v10) of U and V.

    The rest follow: u11 = -u00, v00 = -conj(u00), v11 = conj(u00).  Only
    u10 and v01 depend on the phase e = exp(2 i t); they broadcast the
    sample shape against the shape of phase.
    """
    root, lz, q = sample
    u10 = -1j * q * phase / root
    return lz / 4.0, 0.25j * root, u10, np.conj(u10), -0.25j * root


def connection_at(potential, z, t):
    """Evaluate the connection matrices and t-derivatives at points z."""
    z = np.asarray(z, dtype=complex)
    u00, u01, u10, v01, v10 = _connection_entries(
        _sample(potential, z), np.exp(2j * t)
    )
    shape = z.shape + (2, 2)
    u, v, u_t, v_t, u_tt, v_tt = (np.zeros(shape, dtype=complex) for _ in range(6))
    u[..., 0, 0] = u00
    u[..., 0, 1] = u01
    u[..., 1, 0] = u10
    u[..., 1, 1] = -u00
    v[..., 0, 0] = -np.conj(u00)
    v[..., 0, 1] = v01
    v[..., 1, 0] = v10
    v[..., 1, 1] = np.conj(u00)
    u_t[..., 1, 0] = 2j * u10
    u_tt[..., 1, 0] = -4.0 * u10
    v_t[..., 0, 1] = -2j * v01
    v_tt[..., 0, 1] = -4.0 * v01
    return ConnectionPair(u, v, u_t, v_t, u_tt, v_tt)


def _omega(sample, dz, phase):
    """Entries of the increments omega = U dz + V dz̄, omega_t and omega_tt.

    sample is `_sample`'s data at the evaluation points.  Returns (diag,
    off, off_t, off_tt), each of shape (2, T, n): the diagonal (omega00,
    omega11) and the off-diagonal entries in swapped order (omega10,
    omega01), which is what `_rhs` multiplies with.
    """
    u00, u01, u10, v01, v10 = _connection_entries(sample, phase)
    dzbar = np.conj(dz)
    w = u00 * dz - np.conj(u00) * dzbar
    diag = np.empty((2,) + u10.shape, dtype=complex)
    diag[0] = w
    diag[1] = -w
    off = np.empty_like(diag)
    off[0] = u10 * dz + v10 * dzbar
    off[1] = u01 * dz + v01 * dzbar
    off_t = np.empty_like(diag)
    off_t[0] = 2j * u10 * dz
    off_t[1] = -2j * v01 * dzbar
    return diag, off, off_t, off_t * _OMEGA_TT_FACTOR


def _rhs(state, omega):
    """Derivative of (Psi, Psi_t, Psi_tt) along the step direction.

    (Psi @ omega)[i, j] = Psi[i, j] omega[j, j] + Psi[i, 1 - j] omega[1 - j, j],
    and omega_t, omega_tt have no diagonal.  state is the full triple,
    (3, 2, 2, T, n), or its row 0, (3, 2, T, n): the column axis is -3 in
    both.
    """
    diag, off, off_t, off_tt = omega
    swapped = state[..., ::-1, :, :]
    k = state * diag + swapped * off
    k[1] += swapped[0] * off_t
    k[2] += 2.0 * (swapped[1] * off_t)
    k[2] += swapped[0] * off_tt
    return k


def _rk4(state, dz, phase, start, mid, end):
    """The RK4 kernel: one step of the frame triple over the increment dz.

    start, mid and end are `_sample`'s data at the step's start point,
    midpoint and end point; the two interior stages share the midpoint.
    state is a full or a row state (see `_rhs`).
    """
    omega_mid = _omega(mid, dz, phase)
    k1 = _rhs(state, _omega(start, dz, phase))
    k2 = _rhs(state + 0.5 * k1, omega_mid)
    k3 = _rhs(state + 0.5 * k2, omega_mid)
    k4 = _rhs(state + k3, _omega(end, dz, phase))
    # state + (k1 + 2 k2 + 2 k3 + k4) / 6, in place, in that order
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 /= 6.0
    k1 += state
    return k1


def rk4_step(potential, state, z0, z1, phase):
    """One classical RK4 step of the frame triple from z0 to z1.

    state has shape (3, 2, 2, T, n): (Psi, Psi_t, Psi_tt) entry by entry,
    for T family members at n nodes; phase is exp(2 i t) of shape (T, 1)
    and z0, z1 have n points (or are scalars when n = 1).  The step
    samples the potential at its start, midpoint and end, once for all T
    members.  `integrate_grid` samples the whole grid once per march and
    calls the same kernel on row 0 alone; this function serves its off-node
    base step.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    dz = z1 - z0
    return _rk4(
        state,
        dz,
        phase,
        _sample(potential, z0),
        _sample(potential, z0 + dz / 2.0),
        _sample(potential, z1),
    )


def _substep_points(z0, z1, substeps):
    """Ends of `substeps` equal steps from z0 to z1, on a new leading axis."""
    if substeps == 1:
        return np.stack([z0, z1])
    return np.stack([z0 + (z1 - z0) * (k / substeps) for k in range(substeps + 1)])


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
    ADMISSIBILITY_THRESHOLD or is not finite.
    """
    first, second = potential.integrability_residual(z_nodes)
    # np.maximum, not max: a NaN must survive the comparison
    worst = float(np.maximum(np.max(np.abs(first)), np.max(np.abs(second))))
    if not np.isfinite(worst):
        raise NonFlatInput(
            "integrability residual is not finite; potential data is not admissible"
        )
    if worst > ADMISSIBILITY_THRESHOLD:
        raise NonFlatInput(
            f"integrability residual {worst:.3e} exceeds "
            f"{ADMISSIBILITY_THRESHOLD:.0e}; potential data is not admissible"
        )
    return worst


def _outward(n, start):
    """Paired steps marching away from start: (from, to, chained) per step.

    Step k takes start - k + 1 to start - k and start + k - 1 to start + k
    together: both while both lie in range(n), then the longer side alone.
    from is an index array of the one or two sources, to the slice of the
    destinations in the same (ascending) order.  chained marks a step
    whose sources are the previous step's destinations.
    """
    steps = []
    for k in range(1, max(start, n - 1 - start) + 1):
        sides = [s for s in (-1, 1) if 0 <= start + s * k < n]
        chained = k > 1 and len(sides) == len(steps[-1][0])
        first, last = start + sides[0] * k, start + sides[-1] * k
        steps.append(
            (
                np.array([start + s * (k - 1) for s in sides]),
                slice(first, last + 1, max(last - first, 1)),
                chained,
            )
        )
    return steps


def integrate_grid(
    potential,
    x,
    y,
    t,
    path_order="row-major",
    substeps=1,
    check_flatness=True,
):
    """Integrate the frame triple over the grid x × y at parameter(s) t.

    t is a float, which returns one FrameField, or a 1-D sequence, which
    returns a list with one FrameField per value in the given order; all
    values are marched together, and each member's triple lives in its own
    (3, 2, 2, ny, nx) block, of which psi, psi_t and psi_tt are views.  The
    march fills row 0 of every block; row 1 is its conjugate swap (see the
    module docstring).

    The march starts from the exact base point z = 0 with the triple
    (identity, 0, 0); the grid must contain 0 (the nearest node is reached
    by a single starting step when 0 is not itself a node).  With
    path_order "row-major" the sweep fills the base row outward from that
    node and then advances whole rows outward along y; "column-major" does
    the transpose.  For flat connections the two sweeps agree to RK4
    accuracy, which is the practical test of path independence.  Each
    kernel call takes a pair of steps, one on each side of the base node
    (or row), until the shorter side runs out; the pair shares nothing but
    the call, so the frames are bitwise those of single steps.

    substeps > 1 subdivides every segment into that many equal RK4 steps,
    scaling the local error by substeps^-4.

    Raises NonFlatInput when the admissibility gate trips (disable with
    check_flatness=False to study that failure mode) and DomainError when
    the grid does not contain the base point, the potential cannot be
    sampled on it or its sqrt(rho0) is not real there; all before the
    first step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t_values = np.asarray(t, dtype=float)
    if t_values.ndim > 1:
        raise ValueError("t must be a float or a 1-D sequence of floats")
    if path_order not in ("row-major", "column-major"):
        raise ValueError(f"unknown path order {path_order!r}")
    if x[0] > 0.0 or x[-1] < 0.0 or y[0] > 0.0 or y[-1] < 0.0:
        raise DomainError("integration grid must contain the base point z = 0")
    n_x, n_y = x.size, y.size
    z_nodes = x[None, :] + 1j * y[:, None]
    if check_flatness:
        _check_admissibility(potential, z_nodes)

    members = np.atleast_1d(t_values)
    phase = np.exp(2j * members)[:, None]
    # One (triple, row, column, y, x) block per member; the FrameField
    # arrays are views of it.  The march reads and writes row 0 of each
    # block, column-major through transposed views.
    blocks = [np.zeros((3, 2, 2, n_y, n_x), dtype=complex) for _ in members]
    views = [b[:, 0] for b in blocks]
    i0 = int(np.argmin(np.abs(x)))
    j0 = int(np.argmin(np.abs(y)))
    z_path, row0, col0 = z_nodes, j0, i0
    if path_order == "column-major":
        views = [v.swapaxes(-1, -2) for v in views]
        z_path, row0, col0 = z_nodes.T, i0, j0

    # The base line, then whole rows, each in paired outward steps; a node
    # is the destination of one step.  A step reads its sources through
    # (row, column) index arrays and writes its destinations through
    # (row, column) slices; either way its nodes, taken row by row, are
    # one node axis, so a pair of rows is one state.
    n_rows, n_cols = z_path.shape
    steps = [
        ((np.array([row0]), a), (slice(row0, row0 + 1), b), chained)
        for a, b, chained in _outward(n_cols, col0)
    ] + [
        ((a, np.arange(n_cols)), (b, slice(None)), chained)
        for a, b, chained in _outward(n_rows, row0)
    ]

    # Sample every step of the march at once, indexed by (substep, row,
    # column) of the destination node: the ends, the increments and the
    # midpoints.
    z_from = z_path.copy()
    for src, dst, _ in steps:
        z_from[dst] = z_path[np.ix_(*src)]
    points = _substep_points(z_from, z_path, substeps)
    dz = points[1:] - points[:-1]
    ends = _sample(potential, points)
    mids = _sample(potential, points[:-1] + dz / 2.0)
    # the row march needs a real sqrt(rho0) (module docstring)
    if ends[0].dtype.kind != "f" or mids[0].dtype.kind != "f":
        raise DomainError("sqrt(rho0) is not real on the grid")

    state = np.zeros((3, 2, 2, members.size, 1), dtype=complex)
    state[0, 0, 0] = state[0, 1, 1] = 1.0
    z_base = z_nodes[j0, i0]
    if z_base != 0.0:
        base = _substep_points(np.asarray(0.0j), np.asarray(z_base), substeps)
        for a, b in zip(base[:-1], base[1:]):
            state = rk4_step(potential, state, a, b, phase)
    # Row 0 seeds the march; row 1 is its conjugate swap (module docstring)
    state = state[:, 0]

    def store(at, state):
        for m, view in enumerate(views):
            target = view[(...,) + at]
            target[...] = state[:, :, m].reshape(target.shape)

    def load(at):
        loaded = np.stack([view[(...,) + np.ix_(*at)] for view in views], axis=2)
        return loaded.reshape(loaded.shape[:3] + (-1,))

    def pick(sample, k, at):
        return tuple(f[(k,) + at].reshape(-1) for f in sample)

    # Every state has a node axis.  A chained step continues from the
    # state of the previous one; any other step loads its sources.
    store((slice(row0, row0 + 1), slice(col0, col0 + 1)), state)
    for src, dst, chained in steps:
        if not chained:
            state = load(src)
        for k in range(substeps):
            state = _rk4(
                state,
                dz[(k,) + dst].reshape(-1),
                phase,
                pick(ends, k, dst),
                pick(mids, k, dst),
                pick(ends, k + 1, dst),
            )
        store(dst, state)
    # row 1 = (conj(row 0[1]), conj(row 0[0])) in every block
    for block in blocks:
        np.conjugate(block[:, 0, ::-1], out=block[:, 1])

    out = [
        FrameField(x, y, float(tm), *np.moveaxis(block, (1, 2), (3, 4)))
        for tm, block in zip(members, blocks)
    ]
    return out if t_values.ndim else out[0]

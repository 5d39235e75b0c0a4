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
and so do Psi_t and Psi_tt because t is real.  Row 0 is the whole frame,
and all the program stores: one array of shape (3, 2, T, ny * nx)
(triple, column, t, node, the nodes row by row).  A step loads and stores
its nodes by flat index, as a state of shape (3, 2, T, n).  Each member's
FrameField holds its (3, 2, ny, nx) view of the array; the assembly reads
row 1 as the conjugate swap (conj(b), conj(a)) of row 0 = (a, b), and
only the tests form full matrices (`FrameField.psi`).  Row 1 of the full
RK4 march is that swap bitwise, up to the sign of a zero.  The argument
needs a real sqrt(rho0): `integrate_grid` raises DomainError before the
first step when a sample of it is not a real array (NaN and inf are real,
and take their usual path).  `rk4_step` takes the starting step to a base
node off z = 0 on the row state (1, 0) of the identity.  The kernel also
takes the full (3, 2, 2, T, n) state, whose row 0 it computes with the
same operations.

The potential is sampled once per march, not once per step: that data
does not depend on t or on the state, so `integrate_grid` makes one
`_sample` call on the grid nodes and one on the step midpoints before it
marches.  A grid the potential cannot be evaluated on (past a solved
rectangle, say) therefore fails before the first step.  The increments
omega, omega_t and omega_tt do not depend on the state either.  The march
lists every step's destination nodes, with their sources, in march order,
and cuts that list into batches of consecutive steps of at most
MARCH_BATCH_ENTRIES t x node entries (a larger step is a batch of its
own).  One `_omega` call per sample kind (start, midpoint, end) gives a
batch's increments; each step takes its contiguous slice of them, and
the RK4 kernel `_rk4` then runs only its four stages.  `rk4_step`
evaluates the three increments of its own step for the kernel.  The
frames do not change, bitwise: `_omega` is entry-wise too.

The outward steps run in pairs.  Along the base line, the step to column
col0 + k and the step to col0 - k are one `_rk4` call on both nodes; then
the steps to rows row0 + k and row0 - k are one call on both rows.  Where
one side is longer, its remaining steps run alone.  At a few nodes a
step's cost is NumPy's per-call overhead, so halving the calls (128
instead of 256 at 129 x 129) is what saves time.  The frames do not
change, bitwise: the kernel is entry-wise, so every node is computed from
its own source state and increments, the same ones as in a march that
takes one direction at a time.

Admissibility of the potential is what makes the connection flat
(curvature dz̄-derivative of U minus dz-derivative of V minus [U, V]
vanishes), hence the integration path-independent.  The package checks
admissibility in one place, `_check_admissibility`: the potential's
integrability residual must stay within ADMISSIBILITY_THRESHOLD at every
grid node.  `integrate_grid` runs that gate on every call, once, before
its first step.  Neither the gate nor the march warns of an overflow: a
residual that is not finite fails the gate, and frames that are not
finite fail the assembly's singular-frame gate (mat2.inv).  The march
takes one path, row-major with one RK4 step per segment.  The tests'
reference march (`tests/march_reference.py`: this kernel, stepped node
by node on the full state) equals it bitwise on that path and also
marches column-major and with substeps, which is how path independence
and the RK4 order are checked.
"""

from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import DomainError, NonFlatInput

#: Bound on the integrability residual at every node (analytic residuals
#: are ~1e-16, stored solve residuals <= solver tol; inadmissible data is
#: O(0.1)).
ADMISSIBILITY_THRESHOLD = 1e-6

#: omega_tt over omega_t, entry by entry, in the swapped off-diagonal
#: order (1,0), (0,1) of `_omega`.
_OMEGA_TT_FACTOR = np.array([2j, -2j])[:, None, None]

#: t x node entries whose increments `integrate_grid` evaluates in one
#: `_omega` call per sample kind, 1 MB of increments each.  At 129 x 129
#: with 4 t values, 2048 to 8192 entries march equally fast, and 16384
#: entries or one whole-grid batch march slower.
MARCH_BATCH_ENTRIES = 8192


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
    and omega_t, omega_tt have no diagonal.  state is the triple's row 0,
    (3, 2, T, n), or the full triple, (3, 2, 2, T, n): the column axis is
    -3 in both.
    """
    diag, off, off_t, off_tt = omega
    swapped = state[..., ::-1, :, :]
    k = state * diag + swapped * off
    k[1] += swapped[0] * off_t
    k[2] += 2.0 * (swapped[1] * off_t)
    k[2] += swapped[0] * off_tt
    return k


def _rk4(state, start, mid, end):
    """The RK4 kernel: one step of the frame triple.

    start, mid and end are `_omega`'s increments of the step, evaluated on
    the potential data at its start point, midpoint and end point; the two
    interior stages share the midpoint.  state is a full or a row state
    (see `_rhs`).
    """
    k1 = _rhs(state, start)
    k2 = _rhs(state + 0.5 * k1, mid)
    k3 = _rhs(state + 0.5 * k2, mid)
    k4 = _rhs(state + k3, end)
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

    state has shape (3, 2, T, n): row 0 of (Psi, Psi_t, Psi_tt), entry by
    entry, for T family members at n nodes (the full triple, (3, 2, 2, T,
    n), works as well; see `_rhs`); phase is exp(2 i t) of shape (T, 1)
    and z0, z1 have n points (or are scalars when n = 1).  The step
    samples the potential at its start, midpoint and end, once for all T
    members, and evaluates its own three increments.  `integrate_grid`
    evaluates the increments of many steps at once and calls the same
    kernel; this function serves its off-node base step.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    dz = z1 - z0
    return _rk4(
        state,
        *(
            _omega(_sample(potential, z), dz, phase)
            for z in (z0, z0 + dz / 2.0, z1)
        ),
    )


@dataclass
class FrameField:
    """Frame triple integrated over a rectangular grid.

    Attributes:
      x, y    grid axes (1-D)
      t       family parameter the frames were integrated at
      row     row 0 of (Psi, Psi_t, Psi_tt), shape (3, 2, len(y), len(x)):
              row[k] = (a, b) of [[a, b], [conj(b), conj(a)]] (module
              docstring); a view of the family's one march array

    psi, psi_t and psi_tt build the full (len(y), len(x), 2, 2) matrices
    from the row on each access; the program reads the row.
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    row: np.ndarray

    psi = property(lambda self: _full(self.row[0]))
    psi_t = property(lambda self: _full(self.row[1]))
    psi_tt = property(lambda self: _full(self.row[2]))


def _full(row):
    """The matrices [[a, b], [conj(b), conj(a)]] of a row (a, b)."""
    a, b = row
    return mat2.from_entries((a, b, np.conj(b), np.conj(a)))


def _check_admissibility(potential, z_nodes):
    """Refuse potential data that is not admissible at the nodes z_nodes.

    Evaluates `potential.integrability_residual` at every node: the closed
    form for analytic sources, the stored Newton residual for solved ones,
    which for a potential of build_potential is that of the system after
    the deferred correction (pde.deferred_correction).
    Returns the worst magnitude; raises NonFlatInput when it exceeds
    ADMISSIBILITY_THRESHOLD or is not finite.
    """
    # an overflow is not finite, and np.max propagates a NaN: the
    # finiteness test below refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        worst = float(np.max(np.abs(potential.integrability_residual(z_nodes))))
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
    """Paired steps marching away from start: (sources, destinations, chained).

    Step k takes start - k + 1 to start - k and start + k - 1 to start + k
    together: both while both lie in range(n), then the longer side alone.
    sources and destinations are index arrays of the one or two nodes, in
    the same (ascending) order.  chained marks a step whose sources are the
    previous step's destinations.
    """
    steps = []
    for k in range(1, max(start, n - 1 - start) + 1):
        sides = np.array([s for s in (-1, 1) if 0 <= start + s * k < n])
        chained = k > 1 and sides.size == steps[-1][0].size
        steps.append((start + sides * (k - 1), start + sides * k, chained))
    return steps


def _batches(entries):
    """Runs of consecutive steps whose increments one `_omega` call takes.

    entries[k] is step k's count of t x node entries.  A run grows while
    its total stays within MARCH_BATCH_ENTRIES; a step over that alone is
    a run of its own.  Returns (first, stop) pairs, each for steps first
    to stop - 1.
    """
    runs, first, total = [], 0, 0
    for k, size in enumerate(entries):
        if total and total + size > MARCH_BATCH_ENTRIES:
            runs.append((first, k))
            first, total = k, 0
        total += size
    if total:
        runs.append((first, len(entries)))
    return runs


# an overflow runs to the gates (module docstring)
@np.errstate(over="ignore", invalid="ignore")
def integrate_grid(potential, x, y, t):
    """Integrate the frame triple over the grid x × y at parameter(s) t.

    t is a finite float, which returns one FrameField, or a non-empty 1-D
    sequence of them, which returns a list with one FrameField per value
    in the given order; any other t raises ValueError before the gate.
    All values are marched together in one array of shape (3, 2, T,
    len(y) * len(x)): row 0 of the triple (see the module docstring), with
    the nodes in row-major order.  Each member's FrameField.row is its
    (3, 2, len(y), len(x)) view of that array.

    The march starts from the exact base point z = 0 with the triple
    (identity, 0, 0); the grid must contain 0 (the nearest node is reached
    by a single starting step when 0 is not itself a node).  It fills the
    base row outward from that node and then advances whole rows outward
    along y, one RK4 step per segment.  Each kernel call takes a pair of
    steps, one on each side of the base node (or row), until the shorter
    side runs out; the pair shares nothing but the call, so the frames are
    bitwise those of single steps.  The increments of consecutive steps
    come from one `_omega` call per sample kind and batch of at most
    MARCH_BATCH_ENTRIES t x node entries, and are bitwise those of single
    steps too.

    Raises NonFlatInput when the admissibility gate trips and DomainError
    when the grid does not contain the base point, the potential cannot be
    sampled on it or its sqrt(rho0) is not real there; all before the
    first step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t_values = np.asarray(t, dtype=float)
    members = np.atleast_1d(t_values)
    if t_values.ndim > 1 or members.size == 0 or not np.all(np.isfinite(members)):
        raise ValueError(
            "t must be a finite float or a non-empty 1-D sequence of finite floats"
        )
    if x[0] > 0.0 or x[-1] < 0.0 or y[0] > 0.0 or y[-1] < 0.0:
        raise DomainError("integration grid must contain the base point z = 0")
    n_x, n_y = x.size, y.size
    z_nodes = x[None, :] + 1j * y[:, None]
    _check_admissibility(potential, z_nodes)

    phase = np.exp(2j * members)[:, None]
    # (triple, column, member, node): row 0 of every member's triple
    rows = np.zeros((3, 2, members.size, n_y * n_x), dtype=complex)
    i0 = int(np.argmin(np.abs(x)))
    j0 = int(np.argmin(np.abs(y)))

    # The base row, then whole rows, each in paired outward steps; a node
    # is the destination of one step.  A step's sources and destinations
    # are flat node indices, row by row, so a pair of rows is one state.
    flat = np.arange(n_y * n_x).reshape(n_y, n_x)
    steps = [(flat[j0, a], flat[j0, b], c) for a, b, c in _outward(n_x, i0)] + [
        (flat[a].ravel(), flat[b].ravel(), c) for a, b, c in _outward(n_y, j0)
    ]

    # Every destination and its source in march order: step k owns
    # entries offsets[k]:offsets[k + 1].  (The empty lead part serves a
    # one-node grid, which takes no step.)
    src_nodes = np.concatenate([flat[:0, 0]] + [src for src, _, _ in steps])
    dst_nodes = np.concatenate([flat[:0, 0]] + [dst for _, dst, _ in steps])
    offsets = np.cumsum([0] + [dst.size for _, dst, _ in steps])

    # Sample the march once: the nodes, then the step midpoints in march
    # order.  A step's start and end samples are those of its sources and
    # destinations.
    z_flat = z_nodes.reshape(-1)
    z_src = z_flat[src_nodes]
    dz = z_flat[dst_nodes] - z_src
    nodes = _sample(potential, z_nodes)
    mids = _sample(potential, z_src + dz / 2.0)
    # the row march needs a real sqrt(rho0) (module docstring)
    if nodes[0].dtype.kind != "f" or mids[0].dtype.kind != "f":
        raise DomainError("sqrt(rho0) is not real on the grid")
    nodes = tuple(f.reshape(-1) for f in nodes)

    # Row 0 of the identity seeds the march (module docstring)
    state = np.zeros((3, 2, members.size, 1), dtype=complex)
    state[0, 0] = 1.0
    z_base = z_nodes[j0, i0]
    if z_base != 0.0:
        state = rk4_step(potential, state, 0.0, z_base, phase)

    # Every state has a node axis.  A chained step continues from the
    # state of the previous one; any other step loads its sources.  The
    # increments of a batch of steps come from one `_omega` call per
    # sample kind, and each step takes its slice of them.
    rows[..., flat[j0, i0]] = state[..., 0]
    for first, last in _batches(np.diff(offsets) * members.size):
        lo, hi = offsets[first], offsets[last]
        samples = (
            tuple(f[src_nodes[lo:hi]] for f in nodes),
            tuple(f[lo:hi] for f in mids),
            tuple(f[dst_nodes[lo:hi]] for f in nodes),
        )
        increments = [_omega(sample, dz[lo:hi], phase) for sample in samples]
        for k in range(first, last):
            src, dst, chained = steps[k]
            if not chained:
                state = rows[..., src]
            part = slice(offsets[k] - lo, offsets[k + 1] - lo)
            state = _rk4(
                state, *(tuple(w[..., part] for w in omega) for omega in increments)
            )
            rows[..., dst] = state
        # freed before the next batch's are made: one batch's increments
        # at a time
        del increments

    grid = rows.reshape(3, 2, members.size, n_y, n_x)
    out = [FrameField(x, y, float(tm), grid[:, :, m]) for m, tm in enumerate(members)]
    return out if t_values.ndim else out[0]

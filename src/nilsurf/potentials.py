"""Potential data (rho0, Q0) driving the zero-curvature system.

A potential pairs a holomorphic polynomial Q0 with a positive conformal
density rho0.  Admissible pairs satisfy the integrability condition

    (log rho0)_zz̄ = rho0/8 - 2|Q0|^2/rho0,        (Q0)_z̄ = 0,

which is exactly what makes the associated connection forms flat, hence
integrable to frames.  Three rho0 sources are supported:

  * constant  -- rho0 = c > 0 with closed-form derivatives;
  * liouville -- rho0 = 16/(1-|z|^2)^2 on the unit disk, the closed-form
                 solution of the Q0 = 0 specialization;
  * solved    -- a numerical solve of the integrability equation on a
                 rectangle (see the pde module), evaluated by 4-point
                 Lagrange interpolation in u = log rho0 and in its
                 fourth-order first derivatives.

Derivative convention, used throughout the package:

    d/dz = (d/dx - i d/dy)/2,   d/dz̄ = (d/dx + i d/dy)/2,
    d2/dz dz̄ = Laplacian/4.

Q0 is restricted to polynomials in z (degree <= 8), which guarantees exact
holomorphy and cheap evaluation at arbitrary integration sample points.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, PotentialDataError

MAX_Q0_DEGREE = 8


def _as_coeffs(q0_coeffs):
    c = np.atleast_1d(np.asarray(q0_coeffs, dtype=complex))
    if c.ndim != 1:
        raise PotentialDataError("Q0 coefficients must be a flat sequence")
    if c.size > MAX_Q0_DEGREE + 1:
        raise PotentialDataError(
            f"Q0 degree {c.size - 1} exceeds the supported maximum "
            f"{MAX_Q0_DEGREE}"
        )
    if c.size == 0:
        c = np.zeros(1, dtype=complex)
    return c


class _ConstantSource:
    """rho0 = value everywhere."""

    name = "constant"
    analytic = True

    def __init__(self, value):
        value = float(value)
        if not (value > 0.0 and np.isfinite(value)):
            raise PotentialDataError(f"constant rho0 must be positive, got {value}")
        self.value = value

    def rho0(self, z):
        return np.full(np.shape(z), self.value, dtype=float)

    def dlog_dz(self, z):
        return np.zeros(np.shape(z), dtype=complex)

    def log_zzbar(self, z):
        return np.zeros(np.shape(z), dtype=float)

    def describe(self):
        return {"source": "constant", "value": self.value}


def _in_unit_disk(z):
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("liouville density only defined on |z| < 1")
    return z


def liouville_exact(z):
    """Closed-form density 16/(1-|z|^2)^2 on the unit disk.

    Raises DomainError outside |z| < 1.  The liouville source evaluates
    it, and it is the regression target of the density solver: with
    Q0 = 0 and boundary data sampled from it the solve must reproduce it
    to discretization accuracy.
    """
    z = _in_unit_disk(z)
    return 16.0 / (1.0 - np.abs(z) ** 2) ** 2


class _LiouvilleSource:
    """rho0 = 16/(1-|z|^2)^2 on |z| < 1 (closed-form Liouville solution)."""

    name = "liouville"
    analytic = True

    def rho0(self, z):
        return liouville_exact(z)

    def dlog_dz(self, z):
        z = _in_unit_disk(z)
        return 2.0 * np.conj(z) / (1.0 - np.abs(z) ** 2)

    def log_zzbar(self, z):
        z = _in_unit_disk(z)
        return 2.0 / (1.0 - np.abs(z) ** 2) ** 2

    def describe(self):
        return {"source": "liouville"}


#: An evaluation coordinate within this many spacings of a solver node is
#: read at that node (_locate).
NODE_SNAP = 1e-9


def _first_derivative(a, h):
    """Fourth-order first derivative of a along axis 0 at spacing h.

    Central (8 (a[i+1] - a[i-1]) - (a[i+2] - a[i-2])) / 12h inside; the
    two rows at each edge take the one-sided five-point formulas, the last
    two as the negated formulas on the rows read backwards, so a mirrored
    a gives the negated mirrored derivative bit for bit.  Needs 5 rows.
    """

    def edge(b):
        return (
            (16.0 * b[3] - 3.0 * b[4]) + (48.0 * b[1] - 36.0 * b[2]) - 25.0 * b[0],
            (18.0 * b[2] - 6.0 * b[3]) + (b[4] - 3.0 * b[0]) - 10.0 * b[1],
        )

    d = np.empty_like(a)
    d[2:-2] = 8.0 * (a[3:-1] - a[1:-3]) - (a[4:] - a[:-4])
    d[0], d[1] = edge(a)
    d[-1], d[-2] = (-v for v in edge(a[::-1]))
    return d / (12.0 * h)


def _lagrange_weights(s):
    """Weights of 4-point Lagrange interpolation at nodes 0, 1, 2, 3 for s.

    Exactly one-hot at an integer s.  At the midpoints s = 1.5, 0.5 and
    2.5 every product is exact, so s and 3 - s get mirrored weights.
    """
    a, b, c, d = s, s - 1.0, s - 2.0, s - 3.0
    return (-(b * c * d) / 6.0, a * c * d / 2.0, -(a * b * d) / 2.0, a * b * c / 6.0)


def _combine(w, g):
    """sum w_k g_k, paired outer and inner so the mirror gives the same bits."""
    return (w[0] * g[0] + w[3] * g[3]) + (w[1] * g[1] + w[2] * g[2])


def _locate(f, n):
    """4-point stencil of the axis coordinates f (in spacings) on n nodes.

    Returns (start, s): the stencil's first node and f - start, in [0, 3].
    A coordinate within NODE_SNAP of a node is read at that node, with
    s an integer; inside, s is 1 at a node and 1.5 at a midpoint, and the
    stencil shifts inward at the edges.
    """
    node = np.rint(f)
    f = np.where(np.abs(f - node) <= NODE_SNAP, node, f)
    start = np.clip(np.floor(f).astype(int) - 1, 0, n - 4)
    return start, f - start


class _SolvedSource:
    """rho0 = exp(u) with u solved on a rectangle and interpolated.

    Stores the solver axes, the u field, its first-derivative field
    (_first_derivative: fourth-order central differences, one-sided at
    the two edge nodes), and the solver's final residual field.
    Evaluation is 4-point Lagrange interpolation of each stored field,
    fourth-order like the corrected solve (pde.deferred_correction); the
    derivative and interpolation stencils are mirror-symmetric bit for
    bit.  Working in u = log rho0 makes positivity structural, so the
    corrupted-solve check reduces to finiteness of the stored data.

    The march samples the nodes of the surface grid and the midpoints of
    its steps, each on a node along one axis at least when the surface
    nodes are solver nodes (as on the default solver grid).  Such a point
    gathers only the 4 nodes along its other axis; a point off the nodes
    along both axes gathers 16.
    """

    name = "solved"
    analytic = False

    def __init__(self, x, y, u, residual_field=None):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.u = np.asarray(u, dtype=float)
        if self.u.shape != (self.y.size, self.x.size):
            raise PotentialDataError(
                f"solved grid shape {self.u.shape} does not match axes "
                f"({self.y.size}, {self.x.size})"
            )
        if min(self.u.shape) < 5:
            raise PotentialDataError("solved grid needs at least 5 nodes per axis")
        if not np.all(np.isfinite(self.u)):
            raise PotentialDataError("solved field contains non-finite values")
        hx = self.x[1] - self.x[0]
        hy = self.y[1] - self.y[0]
        ux = _first_derivative(self.u.T, hx).T
        uy = _first_derivative(self.u, hy)
        self._dlog = 0.5 * (ux - 1j * uy)
        if residual_field is None:
            residual_field = np.zeros_like(self.u)
        self.residual_field = np.asarray(residual_field, dtype=float)

    def _interp(self, field, z):
        z = np.asarray(z, dtype=complex)
        eps = 1e-12
        xr, yr = z.real, z.imag
        if (
            np.any(xr < self.x[0] - eps)
            or np.any(xr > self.x[-1] + eps)
            or np.any(yr < self.y[0] - eps)
            or np.any(yr > self.y[-1] + eps)
        ):
            raise DomainError("evaluation point outside the solved rectangle")
        ny, nx = field.shape
        x0, sx = _locate((xr.ravel() - self.x[0]) / (self.x[1] - self.x[0]), nx)
        y0, sy = _locate((yr.ravel() - self.y[0]) / (self.y[1] - self.y[0]), ny)
        # a point on a node along x reads its 4 stencil nodes along y, and
        # any other its 4 along x at its node along y; a point on neither
        # is read again below from its 16 nodes
        on_x, on_y = sx == np.floor(sx), sy == np.floor(sy)
        first = np.where(
            on_x, y0 * nx + x0 + sx.astype(int), (y0 + sy.astype(int)) * nx + x0
        )
        stride = np.where(on_x, nx, 1)
        flat = field.ravel()
        value = _combine(
            _lagrange_weights(np.where(on_x, sy, sx)),
            [flat[first + k * stride] for k in range(4)],
        )
        off = ~(on_x | on_y)
        if np.any(off):
            # rows y0 .. y0 + 3, each interpolated along x
            k = np.arange(4)
            block = field[
                (y0[off, None] + k)[:, :, None], (x0[off, None] + k)[:, None]
            ]
            wx = _lagrange_weights(sx[off])
            along_x = [_combine(wx, block[:, row].T) for row in k]
            value[off] = _combine(_lagrange_weights(sy[off]), along_x)
        return value.reshape(z.shape)

    def rho0(self, z):
        return np.exp(self._interp(self.u, z)).real

    def dlog_dz(self, z):
        return self._interp(self._dlog, z)

    def nearest_residual(self, z):
        """Stored discrete solve residual at the nearest interior node."""
        z = np.asarray(z, dtype=complex)
        hx = self.x[1] - self.x[0]
        hy = self.y[1] - self.y[0]
        ix = np.clip(
            np.rint((z.real - self.x[0]) / hx).astype(int), 1, self.x.size - 2
        )
        iy = np.clip(
            np.rint((z.imag - self.y[0]) / hy).astype(int), 1, self.y.size - 2
        )
        return self.residual_field[iy, ix]

    def describe(self):
        return {
            "source": "solved",
            "nx": int(self.x.size),
            "ny": int(self.y.size),
            "max_residual": float(np.max(np.abs(self.residual_field))),
        }


class Potential:
    """Pair (rho0 source, Q0 polynomial) with derivative evaluation.

    Build instances through the classmethods `constant`, `liouville`, and
    `solved`.  All evaluators are vectorized over complex arrays z.
    """

    def __init__(self, source, q0_coeffs):
        self.source = source
        self.q0_coeffs = _as_coeffs(q0_coeffs)
        if source.name == "liouville" and np.any(self.q0_coeffs != 0):
            raise PotentialDataError(
                "the liouville closed form solves the Q0 = 0 equation; "
                "nonzero Q0 requires a solved source"
            )

    @classmethod
    def constant(cls, rho0_value, q0_coeffs=(0.25,)):
        return cls(_ConstantSource(rho0_value), q0_coeffs)

    @classmethod
    def liouville(cls):
        return cls(_LiouvilleSource(), (0.0,))

    @classmethod
    def solved(cls, solution, q0_coeffs):
        """Build from a pde.SolveResult (or anything with x, y, u fields)."""
        residual = getattr(solution, "residual_field", None)
        src = _SolvedSource(solution.x, solution.y, solution.u, residual)
        return cls(src, q0_coeffs)

    def q0(self, z):
        """Value of the holomorphic polynomial Q0 at z."""
        z = np.asarray(z, dtype=complex)
        return np.asarray(npoly.polyval(z, self.q0_coeffs), dtype=complex)

    def rho0(self, z):
        """Value of rho0 at z (positive real)."""
        return self.source.rho0(z)

    def dlog_rho0_dz(self, z):
        """(log rho0)_z at z."""
        return self.source.dlog_dz(z)

    def integrability_residual(self, z):
        """Residual of the admissibility condition at z.

        Returns (log rho0)_zz̄ - rho0/8 + 2|Q0|^2/rho0, identically zero
        for admissible data.  The other condition, (Q0)_z̄ = 0, holds by
        construction, because Q0 is a polynomial in z.  For a solved source
        the residual is the stored discrete solve residual at the nearest
        interior solver node, which is what the Newton solve actually
        certifies: for build_potential's source, that of the corrected
        system (pde.deferred_correction).
        """
        z = np.asarray(z, dtype=complex)
        if self.source.analytic:
            residual = (
                self.source.log_zzbar(z)
                - self.rho0(z) / 8.0
                + 2.0 * np.abs(self.q0(z)) ** 2 / self.rho0(z)
            )
        else:
            residual = self.source.nearest_residual(z)
        return np.asarray(residual, dtype=complex)

    def describe(self):
        """JSON-ready summary used by reports."""
        return {
            "rho0": self.source.describe(),
            "q0_coefficients": [[float(c.real), float(c.imag)] for c in self.q0_coeffs],
        }

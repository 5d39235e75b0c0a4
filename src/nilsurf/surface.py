"""Surface assembly from integrated frames (the immersion formula).

Given the frame triple (Psi, dPsi/dt, d2Psi/dt2) produced by the frame
module, the surface in the ambient matrix model is assembled in two
stages, following the Sym-Bobenko recipe adapted to the Heisenberg group:

  1. the auxiliary map
         fhat = -2 Psi_t Psi^-1 + 2 Psi S Psi^-1,       S = DIAG_IMAG,
     whose derivative in the family parameter t is obtained by the product
     rule (no extra integration needed);

  2. the immersion matrix
         f = -1/2 diag(S d(fhat)/dt) + offdiag(fhat),

i.e. the horizontal part is read directly from fhat while the vertical
(diagonal) part comes from the diagonal of the t-derivative, the only
part of it that is computed.  A point (x1, x2, x3) is the matrix

    [[x3, x1 + i x2], [x1 - i x2, x3]],

so x1 + i x2 = f[0, 1] = fhat[0, 1] and x3 = Re f[0, 0].  fhat itself
stores a companion height Im fhat[0, 0] whose z-derivative reproduces the
vertical frame coefficient of f_z — one of the cross-checks the residual
suite exercises.  `surface_from_frame` is the one place that reads
coordinates off these matrices, after checking both shapes once against
SHAPE_TOL, a module constant like the package's other numerical gates.

At the base point z = 0 the triple is (identity, 0, 0) exactly, hence
fhat(0) = 2 S and f(0) = 0: every generated surface passes through the
origin with no roundoff.

Both stages work on the entries of each matrix field rather than on
stacks of 2x2 matrices, through the entry-wise toolkit in mat2 (inv, mul,
mul_diagonal, times_s, from_entries): fhat and the diagonal of d(fhat)/dt
share one adjugate inverse of Psi, and a product with S only multiplies
columns by i and -i.  The frames arrive as their first row (a, b) (see
the frame module); `surface_from_frame` reads each matrix as the entries
(a, b, conj(b), conj(a)) and never forms it.  The module has two entry
points: `surface_from_frame` assembles one FrameField, and
`generate_surface` marches, behind the march's admissibility gate, and
assembles.  The latter takes one t or a sequence of them; a sequence is
marched once, into one array that all members' frames view (see the
frame module), and each member is then assembled.
"""

from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import ShapeViolation
from .frame import integrate_grid

#: Largest deviation of fhat and of f from their model shapes.
SHAPE_TOL = 1e-6


def _assemble(psi, psi_t, psi_tt):
    """fhat's entries and the diagonal of d(fhat)/dt.

    psi, psi_t and psi_tt are entry 4-tuples.  With a = psi_t psi^-1 and
    g = psi S psi^-1, both from one inverse of psi,

        fhat     = -2 a + 2 g,
        dfhat/dt = -2 g a - 2 psi_tt psi^-1 + 2 a a + 2 psi_t S psi^-1.

    The immersion formula reads only the diagonal (d00, d11) of dfhat/dt,
    so its off-diagonal entries are never formed.  Returns the entry
    4-tuple of fhat and the pair (d00, d11).
    """
    pinv = mat2.inv(psi)
    a = mat2.mul(psi_t, pinv)
    g = mat2.mul(mat2.times_s(psi), pinv)
    fhat = tuple(-2.0 * ai + 2.0 * gi for ai, gi in zip(a, g))
    ga = mat2.mul_diagonal(g, a)
    tt = mat2.mul_diagonal(psi_tt, pinv)
    aa = mat2.mul_diagonal(a, a)
    ts = mat2.mul_diagonal(mat2.times_s(psi_t), pinv)
    return fhat, tuple(
        -2.0 * ga[k] + -2.0 * tt[k] + 2.0 * aa[k] + 2.0 * ts[k] for k in (0, 1)
    )


@dataclass
class SurfaceGrid:
    """A generated surface sampled over a rectangular parameter grid.

    Attributes:
      x, y        parameter-grid axes (1-D)
      t           family parameter
      F           horizontal coordinate x1 + i x2, shape (len(y), len(x))
      height      vertical coordinate x3 (real, same shape)
      aux_height  companion height Im fhat[0, 0] (real, same shape)
      fhat        auxiliary matrix field, shape (ny, nx, 2, 2)
      det_deviation    max |det psi - 1| of the generating frames
      shape_deviation  worst deviation of the immersion matrices from the
                       point-model shape (fhat deviation measured against
                       its own shape class, which has imaginary diagonal)
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    F: np.ndarray
    height: np.ndarray
    aux_height: np.ndarray = None
    fhat: np.ndarray = None
    det_deviation: float = 0.0
    shape_deviation: float = 0.0

    def coords(self):
        """Point coordinates as a real array of shape (ny, nx, 3)."""
        out = np.empty(self.F.shape + (3,), dtype=float)
        out[..., 0] = self.F.real
        out[..., 1] = self.F.imag
        out[..., 2] = self.height
        return out


def _worst(deviation, tol, not_finite, deviates):
    """Max of a deviation field; ShapeViolation if not finite or over tol."""
    worst = float(np.max(deviation))
    if not np.isfinite(worst):
        raise ShapeViolation(not_finite)
    if worst > tol:
        raise ShapeViolation(f"{deviates} by {worst:.3e} (tolerance {tol:.1e})")
    return worst


def surface_from_frame(frame_field):
    """Assemble a SurfaceGrid from an integrated FrameField.

    The one reader of the immersion matrix f.  It checks fhat against its
    shape [[i s, w], [conj(w), -i s]] (s real), then f against the point
    model [[x3, F], [conj(F), x3]] (x3 real), raising ShapeViolation if
    either deviates by more than SHAPE_TOL or by a deviation that is not
    finite; then reads F = f01, height = x3 and aux_height = s.  f shares
    its off-diagonal entries with fhat, so the f check needs only its
    diagonal terms.  A frame that is not finite fails first, as a
    SingularFrameError of its inverse.
    """
    # each frame matrix is [[a, b], [conj(b), conj(a)]] (frame module)
    (h00, h01, h10, h11), (d00, d11) = _assemble(
        *((a, b, np.conj(b), np.conj(a)) for a, b in frame_field.row)
    )
    fhat_dev = _worst(
        np.maximum(
            np.maximum(np.abs(h00.real), np.abs(h00 + h11)),
            np.abs(h10 - np.conj(h01)),
        ),
        SHAPE_TOL,
        "auxiliary matrix field is not finite",
        "auxiliary matrix field deviates from its model shape",
    )
    # f = -1/2 diag(S dfhat/dt) + offdiag(fhat)
    f00 = -0.5 * (1j * d00)
    f11 = -0.5 * (-1j * d11)
    f_dev = _worst(
        np.maximum(np.abs(f00 - f11), np.abs(f00.imag)),
        SHAPE_TOL,
        "matrix shape deviation is not finite",
        "matrix deviates from the point-model shape",
    )
    return SurfaceGrid(
        x=frame_field.x,
        y=frame_field.y,
        t=frame_field.t,
        F=h01,
        height=f00.real.copy(),
        aux_height=h00.imag.copy(),
        fhat=mat2.from_entries((h00, h01, h10, h11)),
        det_deviation=frame_field.det_deviation(),
        shape_deviation=max(fhat_dev, f_dev),
    )


def generate_surface(potential, x, y, t):
    """Integrate frames and assemble the surface at parameter(s) t.

    t is a float, which returns one SurfaceGrid, or a 1-D sequence, which
    returns a list of SurfaceGrid in the given order: one march for all
    members, then each member is assembled from its row of the march.
    Inadmissible data raises the march's NonFlatInput before its first
    step.
    """
    fields = integrate_grid(potential, x, y, t)
    if np.ndim(t) == 0:
        return surface_from_frame(fields)
    return [surface_from_frame(field) for field in fields]

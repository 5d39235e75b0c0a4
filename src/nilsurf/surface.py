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
(diagonal) part comes from the t-derivative.  In the matrix model the
point coordinates appear as

    x1 + i x2 = f[0, 1],    x3 = Re f[0, 0],

and fhat itself stores a companion height Im fhat[0, 0] whose z-derivative
reproduces the vertical frame coefficient of f_z — one of the cross-checks
the residual suite exercises.

At the base point z = 0 the triple is (identity, 0, 0) exactly, hence
fhat(0) = 2 S and f(0) = 0: every generated surface passes through the
origin with no roundoff.

Both stages work on the four entries of each matrix field rather than on
stacks of 2x2 matrices, through the entry-wise toolkit in mat2 (entries,
mul, times_s, from_entries): fhat and d(fhat)/dt share one adjugate
inverse of Psi, and a product with S only multiplies columns by i and -i.
`generate_surface` takes one t or a sequence of them; a sequence is
marched once (see the frame module), and each member is assembled and
its frame released before the next.
"""

from dataclasses import dataclass

import numpy as np

from . import mat2
from .config import DEFAULT_TOLERANCES
from .errors import ShapeViolation
from .frame import integrate_grid


def _add_scaled(out, scale, terms):
    """out += scale * terms, entry by entry, in place."""
    for view, e in zip(mat2.entries(out), terms):
        view += scale * e


def _assemble(psi, psi_t, psi_tt=None):
    """fhat and (given psi_tt) d(fhat)/dt, both from one inverse of psi.

    With a = psi_t psi^-1 and g = psi S psi^-1,

        fhat     = -2 a + 2 g,
        dfhat/dt = -2 g a - 2 psi_tt psi^-1 + 2 a a + 2 psi_t S psi^-1.

    d(fhat)/dt is summed in place and g released once used, so that few
    entry-sized temporaries are alive beside the frame.
    """
    pinv = mat2.entries(mat2.inv(psi))
    a = mat2.mul(mat2.entries(psi_t), pinv)
    g = mat2.mul(mat2.times_s(mat2.entries(psi)), pinv)
    fhat = mat2.from_entries(
        tuple(-2.0 * ai + 2.0 * gi for ai, gi in zip(a, g))
    )
    if psi_tt is None:
        return fhat, None
    dfhat = mat2.from_entries(mat2.mul(g, a))
    dfhat *= -2.0
    del g
    _add_scaled(dfhat, -2.0, mat2.mul(mat2.entries(psi_tt), pinv))
    _add_scaled(dfhat, 2.0, mat2.mul(a, a))
    _add_scaled(dfhat, 2.0, mat2.mul(mat2.times_s(mat2.entries(psi_t)), pinv))
    return fhat, dfhat


def fhat_from_frame(psi, psi_t):
    """Auxiliary matrix map fhat = -2 psi_t psi^-1 + 2 psi S psi^-1."""
    return _assemble(psi, psi_t)[0]


def dfhat_dt_from_frame(psi, psi_t, psi_tt):
    """t-derivative of fhat by the product rule on its defining formula."""
    return _assemble(psi, psi_t, psi_tt)[1]


def ft_from_fhat(fhat, dfhat_dt):
    """Immersion matrix from fhat and its t-derivative.

    Diagonal part: -1/2 of the diagonal of S @ dfhat_dt (the vertical
    coordinate); off-diagonal part: copied from fhat (the horizontal
    coordinates).
    """
    _, f01, f10, _ = mat2.entries(fhat)
    d00, _, _, d11 = mat2.entries(dfhat_dt)
    return mat2.from_entries((-0.5 * (1j * d00), f01, f10, -0.5 * (-1j * d11)))


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
    substeps: int = 1

    @property
    def z_nodes(self):
        return self.x[None, :] + 1j * self.y[:, None]

    @property
    def spacing(self):
        return float(self.x[1] - self.x[0]), float(self.y[1] - self.y[0])

    def coords(self):
        """Point coordinates as a real array of shape (ny, nx, 3)."""
        out = np.empty(self.F.shape + (3,), dtype=float)
        out[..., 0] = self.F.real
        out[..., 1] = self.F.imag
        out[..., 2] = self.height
        return out


def _fhat_shape_deviation(fhat):
    """Deviation of fhat from its model shape.

    fhat matrices carry a purely imaginary, trace-free diagonal and
    conjugate off-diagonal entries: [[i s, w], [conj(w), -i s]] with s
    real.  Measures the max of |Re fhat11|, |fhat11 + fhat22| and
    |fhat21 - conj(fhat12)|.
    """
    d1 = np.abs(fhat[..., 0, 0].real)
    d2 = np.abs(fhat[..., 0, 0] + fhat[..., 1, 1])
    d3 = np.abs(fhat[..., 1, 0] - np.conj(fhat[..., 0, 1]))
    return np.maximum(np.maximum(d1, d2), d3)


def surface_from_frame(frame_field, shape_tol=DEFAULT_TOLERANCES["shape"]):
    """Assemble a SurfaceGrid from an integrated FrameField.

    Verifies that both matrix fields stay within shape_tol of their model
    shapes (raising ShapeViolation otherwise, via the coordinate
    extraction) before reading off coordinates.
    """
    fhat, dfh = _assemble(frame_field.psi, frame_field.psi_t, frame_field.psi_tt)
    ft = ft_from_fhat(fhat, dfh)
    fhat_dev = float(np.max(_fhat_shape_deviation(fhat)))
    if fhat_dev > shape_tol:
        raise ShapeViolation(
            f"auxiliary matrix field deviates from its model shape by "
            f"{fhat_dev:.3e} (tolerance {shape_tol:.1e})"
        )
    coords = mat2.matrix_to_point(ft, tol=shape_tol)
    shape_dev = max(
        fhat_dev,
        float(np.max(mat2.matrix_shape_deviation(ft))),
    )
    return SurfaceGrid(
        x=frame_field.x,
        y=frame_field.y,
        t=frame_field.t,
        F=coords[..., 0] + 1j * coords[..., 1],
        height=coords[..., 2],
        aux_height=fhat[..., 0, 0].imag.copy(),
        fhat=fhat,
        det_deviation=frame_field.det_deviation(),
        shape_deviation=shape_dev,
    )


def generate_surface(
    potential,
    x,
    y,
    t,
    substeps=1,
    shape_tol=DEFAULT_TOLERANCES["shape"],
    check_flatness=True,
):
    """Integrate frames and assemble the surface at parameter(s) t.

    t is a float, which returns one SurfaceGrid, or a 1-D sequence, which
    returns a list of SurfaceGrid in the given order: one march for all
    members, then each member is assembled and its frame released.
    """
    fields = integrate_grid(
        potential, x, y, t, substeps=substeps, check_flatness=check_flatness
    )
    if np.ndim(t) == 0:
        fields = [fields]
    surfaces = []
    while fields:
        surf = surface_from_frame(fields.pop(0), shape_tol=shape_tol)
        surf.substeps = substeps
        surfaces.append(surf)
    return surfaces if np.ndim(t) else surfaces[0]


def sweep_family(
    potential, x, y, t_values, substeps=1, shape_tol=DEFAULT_TOLERANCES["shape"]
):
    """Generate the associated family at each parameter in t_values.

    All members share the potential, the grid and one march.  Returns a
    list of SurfaceGrid in the given order.
    """
    return generate_surface(
        potential, x, y, list(t_values), substeps=substeps, shape_tol=shape_tol
    )

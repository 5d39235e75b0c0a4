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

The assembly's temporaries come to about 28 complex planes for each
node it works on, nearly five times the member's own outputs.  Over a
whole grid they would sit on top of the family's march array and the
members already assembled, and set the peak memory of a family.
`surface_from_frame` therefore works on blocks of whole grid rows of at
most ASSEMBLY_BLOCK_NODES nodes (one row if a row is longer), writing
into outputs allocated once at grid shape, so the temporaries are
bounded by the block, not the grid; only the determinant of psi, which
its gate judges over the whole grid, is kept at grid size.  A grid of
no more nodes than that is one block of the same loop.
"""

from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import ShapeViolation
from .frame import integrate_grid
from .stencils import row_blocks

#: Largest deviation of fhat and of f from their model shapes.
SHAPE_TOL = 1e-6

#: Most grid nodes in one block of the assembly (whole grid rows, at
#: least one).  A block of 4096 nodes holds about 2.3 MB of temporaries,
#: and the flagship's 49 x 49 grid is one block.  Blocks of 2048 to 8192
#: nodes assemble 129 x 129 and 257 x 257 members about equally fast,
#: and faster than one pass over the whole grid.
ASSEMBLY_BLOCK_NODES = 4096


def _assemble(psi, psi_t, psi_tt, d=None):
    """fhat's entries and the diagonal of d(fhat)/dt.

    psi, psi_t and psi_tt are entry 4-tuples, and d, if given, is det(psi)
    after mat2.check_det.  With a = psi_t psi^-1 and g = psi S psi^-1,
    both from one inverse of psi,

        fhat     = -2 a + 2 g,
        dfhat/dt = -2 g a - 2 psi_tt psi^-1 + 2 a a + 2 psi_t S psi^-1.

    The immersion formula reads only the diagonal (d00, d11) of dfhat/dt,
    so its off-diagonal entries are never formed.  Returns the entry
    4-tuple of fhat and the pair (d00, d11).
    """
    pinv = mat2.inv(psi, d)
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

    Both deviations are NaN on a surface that was not generated (one read
    from a CSV, say): nothing measured them.
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    F: np.ndarray
    height: np.ndarray
    aux_height: np.ndarray = None
    fhat: np.ndarray = None
    det_deviation: float = float("nan")
    shape_deviation: float = float("nan")

    def coords(self):
        """Point coordinates as a real array of shape (ny, nx, 3)."""
        out = np.empty(self.F.shape + (3,), dtype=float)
        out[..., 0] = self.F.real
        out[..., 1] = self.F.imag
        out[..., 2] = self.height
        return out


def _worst(deviation, tol, not_finite, deviates):
    """Max of deviations (the maxima of a field's blocks); ShapeViolation
    if it is not finite or over tol."""
    worst = float(np.max(deviation))
    if not np.isfinite(worst):
        raise ShapeViolation(not_finite)
    if worst > tol:
        raise ShapeViolation(f"{deviates} by {worst:.3e} (tolerance {tol:.1e})")
    return worst


def _matrices(row, rows):
    """Entry 4-tuples of the frames row[k] over the grid rows `rows`."""
    # each frame matrix is [[a, b], [conj(b), conj(a)]] (frame module)
    return [(a, b, np.conj(b), np.conj(a)) for a, b in row[:, :, rows]]


def _assemble_rows(surf, row, det, rows):
    """Assemble the grid rows `rows` of surf from the frames row.

    det is det(psi) after mat2.check_det.  Writes the rows of surf's F,
    height, aux_height and fhat, and returns the rows' largest fhat, f
    and determinant deviations.  The rows' temporaries end with the call.
    """
    (h00, h01, h10, h11), (d00, d11) = _assemble(*_matrices(row, rows), det[rows])
    # f = -1/2 diag(S dfhat/dt) + offdiag(fhat)
    f00 = -0.5 * (1j * d00)
    f11 = -0.5 * (-1j * d11)
    surf.F[rows] = h01
    surf.height[rows] = f00.real
    surf.aux_height[rows] = h00.imag
    fhat = surf.fhat[rows]
    fhat[..., 0, 0], fhat[..., 0, 1] = h00, h01
    fhat[..., 1, 0], fhat[..., 1, 1] = h10, h11
    return (
        np.max(
            np.maximum(
                np.maximum(np.abs(h00.real), np.abs(h00 + h11)),
                np.abs(h10 - np.conj(h01)),
            )
        ),
        np.max(np.maximum(np.abs(f00 - f11), np.abs(f00.imag))),
        np.max(np.abs(det[rows] - 1.0)),
    )


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

    The work runs on blocks of whole grid rows (stencils.row_blocks):
    first the determinant of psi, which is kept for the whole grid and
    gated once, then the assembly of each block (_assemble_rows).  The
    shape gates judge the blocks' largest deviations once all blocks are
    done.  Every step is entry-wise, so the blocks give the bits and the
    errors of one pass over the whole grid.
    """
    row = frame_field.row
    shape = row.shape[2:]
    blocks = [rows for rows, _ in row_blocks(*shape, ASSEMBLY_BLOCK_NODES)]
    det = np.empty(shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in blocks:
            det[rows] = mat2.det(_matrices(row[:1], rows)[0])
    mat2.check_det(det)
    surf = SurfaceGrid(
        x=frame_field.x,
        y=frame_field.y,
        t=frame_field.t,
        F=np.empty(shape, dtype=complex),
        height=np.empty(shape),
        aux_height=np.empty(shape),
        fhat=np.empty(shape + (2, 2), dtype=complex),
    )
    fhat_dev, f_dev, det_dev = np.array(
        [_assemble_rows(surf, row, det, rows) for rows in blocks]
    ).T
    surf.shape_deviation = max(
        _worst(
            fhat_dev,
            SHAPE_TOL,
            "auxiliary matrix field is not finite",
            "auxiliary matrix field deviates from its model shape",
        ),
        _worst(
            f_dev,
            SHAPE_TOL,
            "matrix shape deviation is not finite",
            "matrix deviates from the point-model shape",
        ),
    )
    surf.det_deviation = float(np.max(det_dev))
    return surf


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

"""Batched 2x2 complex matrix helpers.

All routines accept arrays of shape (..., 2, 2) and operate on the trailing
two axes, so a whole grid of matrices is processed in one vectorized call.
The four constant basis matrices used by the ambient-space matrix model are
defined here:

    DIAG_IMAG  = [[ i, 0], [0, -i]]   -- diagonal imaginary generator; its
                                         conjugation term anchors the
                                         immersion formula's base point
    BASIS_X1   = [[ 0, 1], [1,  0]]   -- carries the first coordinate
    BASIS_X2   = [[ 0, i], [-i, 0]]   -- carries the second coordinate
    BASIS_X3   = [[ 1, 0], [0,  1]]   -- carries the third coordinate

A point (x1, x2, x3) is modeled as x1*BASIS_X1 + x2*BASIS_X2 + x3*BASIS_X3 =
[[x3, x1 + i x2], [x1 - i x2, x3]].

Products are written entry by entry, the one entry-wise toolkit of the
package: `entries` splits a field into its four entry arrays (m00, m01,
m10, m11), `mul` and `times_s` multiply such 4-tuples, and `from_entries`
stacks one back into a (..., 2, 2) field.  Each entry of a product is then
two whole-grid multiplications and one addition, where NumPy's `@` on
(n, 2, 2) stacks runs one tiny matrix product per node.  The surface
assembly and the residual suite (via `commutator`) use it.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import ShapeViolation, SingularFrameError

DIAG_IMAG = np.array([[1j, 0.0], [0.0, -1j]])
BASIS_X1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BASIS_X2 = np.array([[0.0, 1j], [-1j, 0.0]])
BASIS_X3 = np.eye(2, dtype=complex)

IDENTITY = np.eye(2, dtype=complex)

#: Smallest determinant magnitude `inv` accepts.
SINGULAR_TOL = 1e-13


def det(m):
    """Determinant over the trailing 2x2 axes."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv(m):
    """Inverse over the trailing 2x2 axes via the adjugate formula.

    Raises SingularFrameError if any determinant is not finite or has
    magnitude below SINGULAR_TOL.
    """
    m = np.asarray(m)
    d = det(m)
    if not np.all(np.isfinite(d)):
        raise SingularFrameError("matrix determinant is not finite; cannot invert")
    if np.any(np.abs(d) < SINGULAR_TOL):
        raise SingularFrameError(
            f"matrix determinant below {SINGULAR_TOL:.1e}; cannot invert"
        )
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / d[..., None, None]


def entries(m):
    """The four entries (m00, m01, m10, m11) of a (..., 2, 2) field."""
    m = np.asarray(m)
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def from_entries(e):
    """Stack four entry arrays back into a complex (..., 2, 2) field."""
    out = np.empty(np.broadcast(*e).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = e
    return out


def mul(a, b):
    """Entry-wise 2x2 product a @ b of two entry 4-tuples."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def times_s(a):
    """Entry-wise a @ S of an entry 4-tuple, S = DIAG_IMAG = diag(i, -i)."""
    a00, a01, a10, a11 = a
    return 1j * a00, -1j * a01, 1j * a10, -1j * a11


def commutator(a, b):
    """Matrix commutator [a, b] = a@b - b@a over the trailing axes.

    The commutator is traceless, so three entries are computed:
    [a, b]00 = a01 b10 - b01 a10 = -[a, b]11, and the off-diagonal
    entries from the diagonal differences a00 - a11 and b00 - b11.
    """
    a00, a01, a10, a11 = entries(a)
    b00, b01, b10, b11 = entries(b)
    da = a00 - a11
    db = b00 - b11
    c00 = a01 * b10 - b01 * a10
    return from_entries(
        (c00, b01 * da - a01 * db, a10 * db - b10 * da, -c00)
    )


def point_to_matrix(p):
    """Embed points (..., 3) into the matrix model (..., 2, 2)."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = p[..., 2]
    out[..., 1, 1] = p[..., 2]
    out[..., 0, 1] = p[..., 0] + 1j * p[..., 1]
    out[..., 1, 0] = p[..., 0] - 1j * p[..., 1]
    return out


def matrix_shape_deviation(m):
    """Distance of m from the point-model shape, per matrix.

    Returns the entrywise maximum of |m11 - m22|, |Im m11| and
    |m21 - conj(m12)|; zero exactly when m encodes a real point.
    """
    m = np.asarray(m)
    d1 = np.abs(m[..., 0, 0] - m[..., 1, 1])
    d2 = np.abs(m[..., 0, 0].imag)
    d3 = np.abs(m[..., 1, 0] - np.conj(m[..., 0, 1]))
    return np.maximum(np.maximum(d1, d2), d3)


def matrix_to_point(m, tol=DEFAULT_TOLERANCES["shape"]):
    """Extract coordinates (..., 3) from matrices in the point model.

    Raises ShapeViolation if any matrix deviates from the model shape by
    more than tol (checked entrywise; see matrix_shape_deviation) or by a
    deviation that is not finite.
    """
    m = np.asarray(m)
    dev = matrix_shape_deviation(m)
    worst = np.max(dev) if dev.size else 0.0
    if not np.isfinite(worst):
        raise ShapeViolation("matrix shape deviation is not finite")
    if worst > tol:
        raise ShapeViolation(
            f"matrix deviates from the point-model shape by {worst:.3e} "
            f"(tolerance {tol:.1e})"
        )
    out = np.empty(m.shape[:-2] + (3,), dtype=float)
    out[..., 0] = m[..., 0, 1].real
    out[..., 1] = m[..., 0, 1].imag
    out[..., 2] = m[..., 0, 0].real
    return out

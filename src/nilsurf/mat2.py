"""Batched 2x2 complex matrix helpers.

All routines accept arrays of shape (..., 2, 2) and operate on the trailing
two axes, so a whole grid of matrices is processed in one vectorized call.
One constant matrix is defined here:

    DIAG_IMAG  = [[ i, 0], [0, -i]]   -- the diagonal imaginary generator S
                                         of the immersion formula

(how a point is encoded in a 2x2 matrix is the surface module's business).

Products are written entry by entry, the one entry-wise toolkit of the
package: `entries` splits a field into its four entry arrays (m00, m01,
m10, m11), `mul`, `mul_diagonal`, `times_s` and `commutator_entries` act
on such 4-tuples, and `from_entries` stacks one back into a (..., 2, 2)
field.  Each entry
of a product is then two whole-grid multiplications and one addition,
where NumPy's `@` on (n, 2, 2) stacks runs one tiny matrix product per
node.  The surface assembly and the residual suite (`commutator_entries`)
use it; the stacked `commutator` now serves only the tests' oracles.
"""

import numpy as np

from .errors import SingularFrameError

DIAG_IMAG = np.array([[1j, 0.0], [0.0, -1j]])

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


def mul_diagonal(a, b):
    """The diagonal entries (00, 11) of the product a @ b, as in `mul`."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return a00 * b00 + a01 * b10, a10 * b01 + a11 * b11


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
    return from_entries(commutator_entries(entries(a), entries(b)))


def commutator_entries(a, b):
    """`commutator` of two entry 4-tuples, as an entry 4-tuple."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    da = a00 - a11
    db = b00 - b11
    c00 = a01 * b10 - b01 * a10
    return c00, b01 * da - a01 * db, a10 * db - b10 * da, -c00

"""Batched 2x2 complex matrix helpers, written entry by entry.

A field of 2x2 matrices is held as its four entry arrays (m00, m01, m10,
m11), the one entry-wise toolkit of the package: `entries` splits a
(..., 2, 2) field into such a 4-tuple and `from_entries` stacks one back.
`det`, the adjugate `inv`, `mul`, `mul_diagonal`, `times_s` and
`commutator_entries` act on 4-tuples, so a whole grid of matrices is
processed in one vectorized call per entry; `check_det` is `inv`'s gate
on the determinants.  Each entry of a product is then two whole-grid
multiplications and one addition, where NumPy's `@` on (n, 2, 2) stacks
runs one tiny matrix product per node.  The surface assembly uses the
gate, the inverse and the products, the residual suite
`commutator_entries`.  One constant matrix is defined here:

    DIAG_IMAG  = [[ i, 0], [0, -i]]   -- the diagonal imaginary generator S
                                         of the immersion formula

(how a point is encoded in a 2x2 matrix is the surface module's business).
"""

import numpy as np

from .errors import SingularFrameError

DIAG_IMAG = np.array([[1j, 0.0], [0.0, -1j]])

#: Smallest determinant magnitude `inv` accepts.
SINGULAR_TOL = 1e-13


def det(m):
    """Determinant m00 m11 - m01 m10 of an entry 4-tuple."""
    m00, m01, m10, m11 = m
    return m00 * m11 - m01 * m10


def check_det(d):
    """Refuse determinants d that `inv` cannot divide by.

    Raises SingularFrameError if any of d is not finite, or else if any
    has magnitude below SINGULAR_TOL: the first test runs over all of d
    before the second.
    """
    if not np.all(np.isfinite(d)):
        raise SingularFrameError("matrix determinant is not finite; cannot invert")
    if np.any(np.abs(d) < SINGULAR_TOL):
        raise SingularFrameError(
            f"matrix determinant below {SINGULAR_TOL:.1e}; cannot invert"
        )


def inv(m, d=None):
    """Inverse of an entry 4-tuple via the adjugate formula, as entries.

    d is det(m) when the caller has computed it and passed it through
    `check_det`; otherwise inv computes it and runs that gate itself.
    Entries too large for the determinant overflow it without a warning,
    and fail the gate.
    """
    m00, m01, m10, m11 = m
    if d is None:
        with np.errstate(over="ignore", invalid="ignore"):
            d = det(m)
        check_det(d)
    return m11 / d, -m01 / d, -m10 / d, m00 / d


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


def commutator_entries(a, b):
    """The commutator [a, b] = a@b - b@a of two entry 4-tuples.

    The commutator is traceless, so three entries are computed:
    [a, b]00 = a01 b10 - b01 a10 = -[a, b]11, and the off-diagonal
    entries from the diagonal differences a00 - a11 and b00 - b11.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    da = a00 - a11
    db = b00 - b11
    c00 = a01 * b10 - b01 * a10
    return c00, b01 * da - a01 * db, a10 * db - b10 * da, -c00

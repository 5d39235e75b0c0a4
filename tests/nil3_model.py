"""The Heisenberg group Nil3 as a point model: the tests' reference geometry.

`nilsurf.nil3` holds only what the residual suite runs (the vertical
form, the covariant derivative and the stereographic chart).  This module
holds the rest of the model that criterion 7 and `test_nil3` check those
against: the group law, left translations, the canonical frame as
coordinate rows, the connection table and the bilinear metric.

Points and coordinate vectors are arrays of shape (..., 3).  The metric
is built on the program's vertical form, so the model and the residual
suite share one definition of the vertical part of a vector.
"""

import numpy as np

from nilsurf.nil3 import vertical_form

#: Levi-Civita connection table in frame coefficients:
#: CONNECTION_TABLE[i, j, k] is the E_k-coefficient of (nabla_{E_i} E_j)
#: (zero-based indices).  Nonzero entries, in one-based frame labels:
#:   nabla_{E1} E2 =  (1/2) E3     nabla_{E1} E3 = -(1/2) E2
#:   nabla_{E2} E1 = -(1/2) E3     nabla_{E2} E3 =  (1/2) E1
#:   nabla_{E3} E1 = -(1/2) E2     nabla_{E3} E2 =  (1/2) E1
CONNECTION_TABLE = np.zeros((3, 3, 3))
CONNECTION_TABLE[0, 1, 2] = 0.5
CONNECTION_TABLE[0, 2, 1] = -0.5
CONNECTION_TABLE[1, 0, 2] = -0.5
CONNECTION_TABLE[1, 2, 0] = 0.5
CONNECTION_TABLE[2, 0, 1] = -0.5
CONNECTION_TABLE[2, 1, 0] = 0.5


def planes(v):
    """The component planes (v1, v2, v3) of a (..., 3) array, as views."""
    return np.moveaxis(np.asarray(v), -1, 0)


def stack(components):
    """The (..., 3) array of three broadcastable component planes."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def metric_at(p, u, v):
    """Riemannian inner product of coordinate vectors u, v at point p.

    Bilinear (no conjugation), so it extends to complexified tangents;
    real inputs give the Riemannian metric.
    """
    p = planes(np.asarray(p, dtype=float))
    u = planes(u)
    v = planes(v)
    return u[0] * v[0] + u[1] * v[1] + vertical_form(p, u) * vertical_form(p, v)


def frame_at(p):
    """Canonical orthonormal frame at p, rows in coordinate components.

    Returns an array of shape (..., 3, 3) whose [..., i, :] row is E_{i+1}.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape[:-1] + (3, 3), dtype=float)
    out[..., 0, 0] = 1.0
    out[..., 0, 2] = -0.5 * p[..., 1]
    out[..., 1, 1] = 1.0
    out[..., 1, 2] = 0.5 * p[..., 0]
    out[..., 2, 2] = 1.0
    return out


def group_mul(p, q):
    """Heisenberg group law.

    (p1, p2, p3) * (q1, q2, q3) =
        (p1 + q1, p2 + q2, p3 + q3 + (p1 q2 - p2 q1)/2).

    Left translations by this law are isometries of the metric, and the
    canonical frame is left-invariant.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(np.broadcast(p[..., 0], q[..., 0]).shape + (3,), dtype=float)
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (
        p[..., 2]
        + q[..., 2]
        + 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    )
    return out


def left_translation_differential(p, u):
    """Differential of left translation by p, applied to coordinate vector u.

    Left translation L_p(q) = group_mul(p, q) is affine in q, so its
    differential is the constant linear map
        (u1, u2, u3) -> (u1, u2, u3 + (p1 u2 - p2 u1)/2).
    It maps frame_at(q) to frame_at(group_mul(p, q)) row by row.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u)
    out = np.array(u, dtype=np.result_type(u, float), copy=True)
    out[..., 2] = u[..., 2] + 0.5 * (
        p[..., 0] * u[..., 1] - p[..., 1] * u[..., 0]
    )
    return out

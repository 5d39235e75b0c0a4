"""Exact geometry of the 3-dimensional Heisenberg group Nil3.

The model is R^3 with coordinates (x1, x2, x3) and the left-invariant
Riemannian metric

    ds^2 = dx1^2 + dx2^2 + (x2/2 dx1 - x1/2 dx2 + dx3)^2.

The canonical orthonormal frame is

    E1 = d/dx1 - (x2/2) d/dx3,
    E2 = d/dx2 + (x1/2) d/dx3,
    E3 = d/dx3,

with E3 vertical.  Tangent vectors are handled in two representations:
plain coordinate components, and coefficients on (E1, E2, E3).  Frame
coefficients are the native representation for all surface quantities
(vertical parts, normals, angle functions), because the frame is
orthonormal: norms and inner products become Euclidean there.  Complex
coefficients are allowed everywhere so complexified tangents such as f_z
are first-class.

All functions are vectorized: points may be arrays of shape (..., 3).
"""

import numpy as np

from .errors import PoleError

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


def vertical_form(p, u):
    """The 1-form theta(u) = (x2 u1 - x1 u2)/2 + u3 at p (coordinates).

    theta measures the vertical component: the metric is
    <u, v> = u1 v1 + u2 v2 + theta(u) theta(v).
    """
    return vertical_form_planes(
        _planes(np.asarray(p, dtype=float)), _planes(np.asarray(u))
    )


def _planes(v):
    """The component planes (v1, v2, v3) of a (..., 3) array, as views."""
    return np.moveaxis(v, -1, 0)


def vertical_form_planes(p, u):
    """vertical_form on component planes.

    p = (x1, x2, ...) and u = (u1, u2, u3) are sequences of arrays of one
    shape; p's third plane is not read.
    """
    return 0.5 * (p[1] * u[0] - p[0] * u[1]) + u[2]


def metric_at(p, u, v):
    """Riemannian inner product of coordinate vectors u, v at point p.

    Bilinear (no conjugation), so it extends to complexified tangents;
    real inputs give the Riemannian metric.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    return (
        u[..., 0] * v[..., 0]
        + u[..., 1] * v[..., 1]
        + vertical_form(p, u) * vertical_form(p, v)
    )


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


def frame_coeffs_from_coords(p, u):
    """Convert a coordinate vector at p to canonical-frame coefficients."""
    u = np.asarray(u)
    out = np.empty(np.broadcast(np.asarray(p)[..., 0], u[..., 0]).shape + (3,),
                   dtype=np.result_type(u, float))
    out[..., 0] = u[..., 0]
    out[..., 1] = u[..., 1]
    out[..., 2] = vertical_form(p, u)
    return out


def coords_from_frame_coeffs(p, a):
    """Convert canonical-frame coefficients at p to coordinate components."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a)
    out = np.empty(np.broadcast(p[..., 0], a[..., 0]).shape + (3,),
                   dtype=np.result_type(a, float))
    out[..., 0] = a[..., 0]
    out[..., 1] = a[..., 1]
    out[..., 2] = a[..., 2] - 0.5 * (p[..., 1] * a[..., 0] - p[..., 0] * a[..., 1])
    return out


def gamma(i, j):
    """Frame coefficients of nabla_{E_i} E_j for one-based i, j in {1,2,3}."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"frame indices must be in 1..3, got ({i}, {j})")
    return CONNECTION_TABLE[i - 1, j - 1].copy()


def covariant_derivative(a, w, dw):
    """Covariant derivative in frame coefficients.

    Arguments (all frame-coefficient arrays with trailing axis of length 3,
    complex allowed):
      a  -- coefficients of the differentiation direction,
      w  -- coefficients of the vector field at the same point,
      dw -- directional derivative of w's coefficient functions along a.

    Returns the coefficients of nabla_a w = dw + sum_{i,j} a_i w_j
    (nabla_{E_i} E_j).  The sum is written out as the six nonzero (+-1/2)
    entries of CONNECTION_TABLE, component by component:

        (nabla_a w)_1 = dw_1 + (a_2 w_3 + a_3 w_2)/2
        (nabla_a w)_2 = dw_2 - (a_1 w_3 + a_3 w_1)/2
        (nabla_a w)_3 = dw_3 + (a_1 w_2 - a_2 w_1)/2
    """
    a = np.asarray(a)
    w = np.asarray(w)
    dw = np.asarray(dw)
    out = np.empty(
        np.broadcast(a, w, dw).shape, dtype=np.result_type(a, w, dw, float)
    )
    out[..., 0], out[..., 1], out[..., 2] = covariant_derivative_planes(
        _planes(a), _planes(w), _planes(dw)
    )
    return out


def covariant_derivative_planes(a, w, dw):
    """covariant_derivative on component planes.

    a, w and dw are sequences of three arrays (the frame coefficients'
    planes); returns the three planes of nabla_a w.
    """
    a1, a2, a3 = a
    w1, w2, w3 = w
    return (
        dw[0] + 0.5 * (a2 * w3 + a3 * w2),
        dw[1] - 0.5 * (a1 * w3 + a3 * w1),
        dw[2] + 0.5 * (a1 * w2 - a2 * w1),
    )


def group_mul(p, q):
    """Heisenberg group law.

    (p1, p2, p3) * (q1, q2, q3) =
        (p1 + q1, p2 + q2, p3 + q3 + (p1 q2 - p2 q1)/2).

    Left translations by this law are isometries of the metric, and the
    canonical frame is left-invariant (pinned by the test suite).
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


def group_inv(p):
    """Group inverse: (-p1, -p2, -p3); the central correction cancels."""
    return -np.asarray(p, dtype=float)


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


def project_horizontal(p):
    """Projection to the horizontal plane as a complex number: x1 + i x2.

    This is a Riemannian submersion onto the Euclidean plane and a group
    homomorphism onto (C, +).
    """
    p = np.asarray(p, dtype=float)
    return p[..., 0] + 1j * p[..., 1]


def stereographic_south(n):
    """Stereographic projection of a unit 3-vector from the south pole.

    Maps (n1, n2, n3) to (n1 + i n2)/(1 + n3); the north pole goes to 0 and
    the open northern hemisphere (n3 > 0) maps into the open unit disk.
    Raises PoleError at the south pole n3 = -1.
    """
    n = np.asarray(n, dtype=float)
    denom = 1.0 + n[..., 2]
    if np.any(denom == 0.0):
        raise PoleError("stereographic projection undefined at the south pole")
    return (n[..., 0] + 1j * n[..., 1]) / denom

"""The Heisenberg-group geometry that the residual suite reads.

The model is R^3 with coordinates (x1, x2, x3) and the left-invariant
Riemannian metric

    ds^2 = dx1^2 + dx2^2 + (x2/2 dx1 - x1/2 dx2 + dx3)^2,

whose canonical orthonormal frame is

    E1 = d/dx1 - (x2/2) d/dx3,
    E2 = d/dx2 + (x1/2) d/dx3,
    E3 = d/dx3,

with E3 vertical.  Surface quantities are held as coefficients on
(E1, E2, E3); the frame is orthonormal, so norms and inner products are
Euclidean there.  Three facts are used, each on component planes (one
array per component, so a grid of vectors is three grids):

  * `vertical_form`, the E3-coefficient of a coordinate vector;
  * `covariant_derivative`, the Levi-Civita connection in frame
    coefficients;
  * `stereographic_south`, the chart of the unit sphere that carries the
    Gauss map to the disk.

Complex coefficients are allowed everywhere, so complexified tangents
such as f_z are first-class.
"""

import numpy as np


def vertical_form(p, u):
    """The 1-form theta(u) = (x2 u1 - x1 u2)/2 + u3 at p = (x1, x2, ...).

    p and u are sequences of arrays of one shape (component planes); p's
    third plane is not read.  theta(u) is the E3-coefficient of u, and
    the metric is <u, v> = u1 v1 + u2 v2 + theta(u) theta(v).
    """
    return 0.5 * (p[1] * u[0] - p[0] * u[1]) + u[2]


def covariant_derivative(a, w, dw):
    """Covariant derivative in frame coefficients, on component planes.

    a, w and dw are sequences of three arrays (complex allowed): the
    coefficients of the differentiation direction, of the vector field,
    and the directional derivative of w's coefficient functions along a.
    Returns the three planes of nabla_a w = dw + sum_{i,j} a_i w_j
    (nabla_{E_i} E_j), with the connection's six nonzero entries

        nabla_{E1} E2 =  E3/2    nabla_{E1} E3 = -E2/2
        nabla_{E2} E1 = -E3/2    nabla_{E2} E3 =  E1/2
        nabla_{E3} E1 = -E2/2    nabla_{E3} E2 =  E1/2

    written out component by component.
    """
    a1, a2, a3 = a
    w1, w2, w3 = w
    return (
        dw[0] + 0.5 * (a2 * w3 + a3 * w2),
        dw[1] - 0.5 * (a1 * w3 + a3 * w1),
        dw[2] + 0.5 * (a1 * w2 - a2 * w1),
    )


def stereographic_south(n):
    """Stereographic projection of a unit vector n = (n1, n2, n3) from the
    south pole: (n1 + i n2)/(1 + n3), on component planes.

    The north pole goes to 0 and the open northern hemisphere (n3 > 0)
    into the open unit disk.  The south pole n3 = -1, and any NaN
    component, gives NaN, without a warning.
    """
    denom = 1.0 + n[2]
    denom = np.where(denom == 0.0, np.nan, denom)
    with np.errstate(invalid="ignore"):
        return (n[0] + 1j * n[1]) / denom

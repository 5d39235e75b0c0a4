"""Every difference formula of the package, the one rule for its axes, and
the one split of a grid into blocks of whole rows.

The residual suite's d/dz, d/dz̄ and d2/dz dz̄ (second order, one node in)
difference a complex plane on its float view in real arithmetic: the
complex formulas' values up to the sign of a zero (NumPy divides by a
real c as by c + 0j, multiplying by 1/c); where a part overflows, the
view keeps the partner complex arithmetic makes NaN.  True complex
products stay complex: NumPy fuses them differently by CPU.
"""

import math

import numpy as np

from .errors import DomainError


def square_in_range(length):
    """Whether length^2 and 1/length^2 are both finite and nonzero."""
    square = length * length
    return 0.0 < square < math.inf and 1.0 / square < math.inf


@np.errstate(over="ignore", invalid="ignore")
def axis_steps(axis, rtol, name):
    """(first step, mean step) of an axis of 2 or more nodes that the
    stencils can difference with one step: finite, with a finite nonzero
    mean step (a[-1] - a[0]) / (n - 1) that every step keeps within rtol
    times its magnitude, and a first and mean step that pass
    square_in_range.  DomainError naming the axis otherwise, no warning.
    """
    axis = np.asarray(axis, dtype=float)
    if not np.isfinite(axis).all():
        raise DomainError(f"{name} axis is not uniformly spaced: a node is not finite")
    mean_step = float((axis[-1] - axis[0]) / (axis.size - 1))
    worst = float(np.max(np.abs(np.diff(axis) - mean_step)))
    if not (0.0 < abs(mean_step) < math.inf and worst <= rtol * abs(mean_step)):
        raise DomainError(
            f"{name} axis is not uniformly spaced (a step deviates from "
            f"the mean {mean_step:.6g} by {worst:.3g}); the stencils "
            f"difference with one step"
        )
    steps = float(axis[1] - axis[0]), mean_step
    for length in steps:
        if not square_in_range(length):
            raise DomainError(
                f"{name} axis step {length!r} is out of range: h^2 or 1/h^2 "
                "is zero or not finite, and the stencils divide by h^2"
            )
    return steps


def row_blocks(ny, nx, block_nodes, halo=0):
    """(own rows, rows read) of the ny x nx grid's rows split evenly into
    ceil(ny / max(block_nodes // nx, 4 * halo, 1)) blocks, each read with
    `halo` rows more on each side.  With more than one block, each owns
    over 2 * halo rows, so its halo is at most half of its work."""
    count = -(-ny // max(block_nodes // nx, 4 * halo, 1))
    edges = [ny * k // count for k in range(count + 1)]
    return [
        (slice(top, end), slice(max(top - halo, 0), end + halo))
        for top, end in zip(edges, edges[1:])
    ]


def _pairs(f):
    """(f as float64, False) if real, else (complex f's float view, True)."""
    f = np.asarray(f)
    if not np.iscomplexobj(f):
        return np.asarray(f, dtype=float), False
    f = np.ascontiguousarray(f, dtype=complex)
    return f.view(float).reshape(f.shape + (2,)), True


def _scaled(a, c, pairs):
    """a / c in place; for a complex plane's float view a times 1/c."""
    return np.multiply(a, 1.0 / c, out=a) if pairs else np.divide(a, c, out=a)


def _xy_differences(f, hx, hy):
    """The halved x and y differences one node in, as the part pairs re and
    im of d/dz = (re[0] + re[1], im[0] - im[1]) and d/dz̄ = (re[0] - re[1],
    im[0] + im[1]): re = (fx_re, fy_im) and im = (fx_im, fy_re) on a
    complex plane's float view; on a real plane re = (fx, -(0 fy)) and im
    = (0, fy), the parts NumPy gives fx + 0j and 1j fy = (0 fy, fy)."""
    v, pairs = _pairs(f)
    fx = _scaled(v[1:-1, 2:] - v[1:-1, :-2], 4.0 * hx, pairs)
    fy = _scaled(v[2:, 1:-1] - v[:-2, 1:-1], 4.0 * hy, pairs)
    if pairs:
        return (fx[..., 0], fy[..., 1]), (fx[..., 1], fy[..., 0])
    return (fx, -0.0 * fy), (0.0, fy)


def _combined(re, im, bar):
    """d/dz, or d/dz̄ with bar, from the part pairs of _xy_differences."""
    re_op, im_op = (np.subtract, np.add) if bar else (np.add, np.subtract)
    out = np.empty(np.shape(im[1]), dtype=complex)
    re_op(*re, out=out.real)
    im_op(*im, out=out.imag)
    return out


def dz(f, hx, hy):
    """d/dz = (d/dx - i d/dy)/2 on the nodes one in from every side."""
    return _combined(*_xy_differences(f, hx, hy), bar=False)


def dzbar(f, hx, hy):
    """d/dz̄ = (d/dx + i d/dy)/2 on the nodes one in from every side."""
    return _combined(*_xy_differences(f, hx, hy), bar=True)


def dz_dzbar(f, hx, hy):
    """(d/dz, d/dz̄) of one plane from a single pair of x/y differences."""
    re, im = _xy_differences(f, hx, hy)
    return _combined(re, im, bar=False), _combined(re, im, bar=True)


def less_quarter_i(d, c):
    """d - 0.25j * c = (d_re + c_im/4, d_im - c_re/4), written into complex d."""
    d.real += 0.25 * c.imag
    d.imag -= 0.25 * c.real
    return d


def dzzbar(f, hx, hy):
    """d2/dz dz̄ = Laplacian/4 by the 5-point stencil, one node in."""
    v, pairs = _pairs(f)
    twice = 2.0 * v[1:-1, 1:-1]
    lap = v[1:-1, 2:] + v[1:-1, :-2]
    lap -= twice
    along = np.subtract(v[2:, 1:-1] + v[:-2, 1:-1], twice, out=twice)
    lap = _scaled(lap, hx**2, pairs)
    lap += _scaled(along, hy**2, pairs)
    lap = _scaled(lap, 4.0, pairs)
    return lap.view(complex)[..., 0] if pairs else lap


# The same operator on square cells as dzzbar on a real plane, summed in
# another order: the solve's residual and the checker's reports each keep
# the bits of their own order, so the two are not merged.
def quarter_laplacian(u, h):
    """Laplacian(u)/4 on the interior nodes of u, 5-point stencil at spacing h.

    The one discrete operator of the density solve: its residual applies
    it to the iterate, the Newton step to the zero-padded search
    direction, and the harmonic fill to the boundary data with a zeroed
    interior.
    """
    lap = u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1] - 4.0 * u[1:-1, 1:-1]
    return lap / h**2 / 4.0


def rounding_floor(u, h):
    """Rounding floor of the max-norm of quarter_laplacian(u, h) residuals.

    The stencil divides differences of u by h^2, so one unit of roundoff
    in its five terms is eps (|u_E| + |u_W| + |u_N| + |u_S| + 4|u|) / 4h^2;
    the largest value over the interior nodes is the floor.  On a fine
    grid it exceeds a fixed tol: about 4e-10 at 513^2 on Liouville data.
    """
    a = np.abs(u)
    terms = a[1:-1, 2:] + a[1:-1, :-2] + a[2:, 1:-1] + a[:-2, 1:-1]
    terms += 4.0 * a[1:-1, 1:-1]
    return float(np.finfo(float).eps * np.max(terms) / (4.0 * h * h))


def fourth_difference(a):
    """Undivided fourth differences of a along axis 0 at rows 1 .. n - 2.

    Rows 2 .. n - 3 take the central stencil (1, -4, 6, -4, 1); row 1
    takes the one-sided (2, -9, 16, -14, 6, -1) on rows 0 .. 5, and row
    n - 2 the same on the rows read backwards, so a mirrored a gives the
    mirrored differences bit for bit.  Each is h^4 times the fourth
    derivative to O(h^6).  Needs 6 rows.
    """

    def edge(b):
        return (2.0 * b[0] - b[5]) + (16.0 * b[2] - 9.0 * b[1]) + (
            6.0 * b[4] - 14.0 * b[3]
        )

    d = np.empty((a.shape[0] - 2,) + a.shape[1:])
    d[1:-1] = (a[:-4] + a[4:]) - 4.0 * (a[1:-3] + a[3:-1]) + 6.0 * a[2:-2]
    d[0] = edge(a)
    d[-1] = edge(a[::-1])
    return d


def first_derivative(a, h):
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

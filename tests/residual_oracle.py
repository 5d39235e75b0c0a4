"""The residual suite as it stood on NaN-ring grids: the oracle of the tests.

Every quantity here is a full (ny, nx, ...) grid: each derivative is
written into a ring of NaN where its stencil does not fit, the tangent
data are stacked along a trailing axis of length 3, and the maxima are
NaN-aware max-norms over margin-trimmed slices.  `nilsurf.residuals`
computes the same formulas, in the same order of operations, on
interior-only component planes; `verify_surface` below is the oracle its
reports are compared with bit for bit.  The per-class helpers also give
the tests the quantities that `verify_surface` does not expose (the
tangent data, the acceleration term of Q), and the `grid_*` wrappers the
stencils below on full grids.  The stencils keep the suite's complex
formulas, divisions by a real step and products by 1j included, in
complex arithmetic; `nilsurf.stencils` runs them on float views in real
arithmetic, and the tests hold the two to the same values, so this module
must not import those.  The oracle
shares the program's Nil3 kernel (on component planes) and entry-wise
commutator, whose complex products the program does not rewrite.
"""

from dataclasses import dataclass

import numpy as np

from nil3_model import planes, stack
from nilsurf.config import DEFAULT_TOLERANCES
from nilsurf.errors import DegenerateNode, DomainError
from nilsurf.mat2 import commutator_entries, entries, from_entries
from nilsurf.nil3 import covariant_derivative, vertical_form
from nilsurf.residuals import ANGLE_CUTOFF, DEGENERATE_TOL, ResidualReport


def nan_ring(interior):
    """Complex interior inside a ring of NaN one node wide."""
    ny, nx = interior.shape[:2]
    out = np.full((ny + 2, nx + 2) + interior.shape[2:], np.nan, dtype=complex)
    out[1:-1, 1:-1] = interior
    return out


def xy_differences(f, hx, hy):
    """(f_x/2, i f_y/2) by central differences on the interior.

    A real f is differenced in real arithmetic; i f_y/2 is complex.  f may
    carry trailing axes beyond its (ny, nx) grid.
    """
    f = np.asarray(f)
    fx = (f[1:-1, 2:] - f[1:-1, :-2]) / (4.0 * hx)
    ify = 1j * ((f[2:, 1:-1] - f[:-2, 1:-1]) / (4.0 * hy))
    return fx, ify


def dz(f, hx, hy):
    """d/dz = (d/dx - i d/dy)/2 on the nodes one in from every side."""
    fx, ify = xy_differences(f, hx, hy)
    return fx - ify


def dzbar(f, hx, hy):
    """d/dz̄ = (d/dx + i d/dy)/2 on the nodes one in from every side."""
    fx, ify = xy_differences(f, hx, hy)
    return fx + ify


def dz_dzbar(f, hx, hy):
    """(d/dz, d/dz̄) of one plane from a single pair of x/y differences."""
    fx, ify = xy_differences(f, hx, hy)
    return fx - ify, fx + ify


def dzzbar(f, hx, hy):
    """d2/dz dz̄ = Laplacian/4 by the 5-point stencil, one node in."""
    f = np.asarray(f)
    lap = (f[1:-1, 2:] + f[1:-1, :-2] - 2.0 * f[1:-1, 1:-1]) / hx**2 + (
        f[2:, 1:-1] + f[:-2, 1:-1] - 2.0 * f[1:-1, 1:-1]
    ) / hy**2
    return lap / 4.0


def grid_dz(f, hx, hy):
    """d/dz = (d/dx - i d/dy)/2 by central differences.

    f has shape (ny, nx, ...); the outermost ring of nodes gets NaN since
    the stencil does not fit there.
    """
    return nan_ring(dz(f, hx, hy))


def grid_dzbar(f, hx, hy):
    """d/dz̄ = (d/dx + i d/dy)/2 by central differences (NaN ring)."""
    return nan_ring(dzbar(f, hx, hy))


def grid_dz_dzbar(f, hx, hy):
    """(d/dz, d/dz̄) of one field from a single pair of x/y differences."""
    return tuple(nan_ring(d) for d in dz_dzbar(f, hx, hy))


def grid_dzzbar(f, hx, hy):
    """d2/dz dz̄ = Laplacian/4 by the 5-point stencil (NaN ring)."""
    return nan_ring(dzzbar(f, hx, hy))


def stacked_covariant_derivative(a, w, dw):
    """nil3.covariant_derivative on (..., 3) arrays."""
    return stack(covariant_derivative(planes(a), planes(w), planes(dw)))


@dataclass
class TangentData:
    """Tangent data of a surface grid in frame coefficients.

    Attributes:
      F_z, F_zbar  complex derivatives of the horizontal coordinate
      A            vertical frame coefficient of f_z (nil3.vertical_form of
                   f_z): A = h_z - (i/4)(F conj(F)_z - conj(F) F_z)
      a            frame coefficients of f_z, shape (ny, nx, 3):
                   ((x1)_z, (x2)_z, A)
      b            frame coefficients of f_z̄ (= conj(a) for real surfaces)
      a_z, a_zbar  d/dz and d/dz̄ of the coefficient functions a, from one
                   pair of x/y differences (two NaN rings); they carry
                   A_z̄ = a_zbar[..., 2] and, for real surfaces,
                   b_z = conj(a_zbar)
    """

    F_z: np.ndarray
    F_zbar: np.ndarray
    A: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_z: np.ndarray
    a_zbar: np.ndarray


def tangent_frame_coeffs(F, height, hx, hy):
    """Compute TangentData from the coordinate grids by central differences."""
    F = np.asarray(F, dtype=complex)
    p = np.stack([F.real, F.imag, np.asarray(height, dtype=float)], axis=-1)
    # frame coefficients (u1, u2, theta(u)) of the coordinate derivative u
    u = grid_dz(p, hx, hy)
    a = stack((u[..., 0], u[..., 1], vertical_form(planes(p), planes(u))))
    a_z, a_zbar = grid_dz_dzbar(a, hx, hy)
    # p is real, so the coordinate z̄-derivatives are conj(p_z).
    return TangentData(
        F_z=a[..., 0] + 1j * a[..., 1],
        F_zbar=np.conj(a[..., 0]) + 1j * np.conj(a[..., 1]),
        A=np.ascontiguousarray(a[..., 2]),
        a=a,
        b=np.conj(a),
        a_z=a_z,
        a_zbar=a_zbar,
    )


def conformality_residual(tangent):
    """Bilinear self-product <f_z, f_z> (zero iff conformal) and metric density.

    Returns (conf, rho) with conf = sum_k a_k^2 and rho = 2 sum_k |a_k|^2;
    rho is the conformal factor of the induced metric when conf vanishes.
    """
    conf = np.sum(tangent.a * tangent.a, axis=-1)
    rho = 2.0 * np.sum(np.abs(tangent.a) ** 2, axis=-1)
    return conf, rho


def minimality_residuals(tangent, F, hx, hy):
    """Horizontal and vertical minimality residuals.

    Horizontal: F_zz̄ - (i/2)(conj(A) F_z + A F_z̄).
    Vertical:   A_z̄ + conj(A_z̄) = 2 Re A_z̄.
    """
    r1 = grid_dzzbar(F, hx, hy) - 0.5j * (
        np.conj(tangent.A) * tangent.F_z + tangent.A * tangent.F_zbar
    )
    a_zbar = tangent.a_zbar[..., 2]
    r2 = a_zbar + np.conj(a_zbar)
    return r1, r2


def covariant_minimality_residual(tangent):
    """Frame coefficients of nabla_{f_z} f_z̄ (the tension field; zero iff minimal).

    The covariant derivative is the z-derivative of the coefficients of
    f_z̄ (conj(a_z̄), since f is real) plus the connection correction.
    """
    return stacked_covariant_derivative(
        tangent.a, tangent.b, np.conj(tangent.a_zbar)
    )


def unit_normal(tangent):
    """Unit normal in frame coefficients and its vertical angle function.

    Built from the real coordinate-direction tangents f_x = 2 Re a and
    f_y = -2 Im a; the frame is orthonormal so the Euclidean cross product
    computes the metric normal.  Returns (N, phi) with phi = <N, E3>.
    """
    fx = 2.0 * tangent.a.real
    fy = -2.0 * tangent.a.imag
    cross = np.cross(fx, fy)
    norm = np.linalg.norm(cross, axis=-1)
    safe = np.where(norm == 0.0, 1.0, norm)
    normal = cross / safe[..., None]
    normal = np.where(norm[..., None] == 0.0, np.nan, normal)
    return normal, normal[..., 2]


def quadratic_differential(tangent, normal, hx, hy):
    """The holomorphic quadratic differential candidate and its z̄-derivative.

    Q = i <nabla_{f_z} f_z, N> + A^2, the Abresch-Rosenberg-type
    differential; on a minimal conformal immersion Q is holomorphic.
    Returns (Q, Q_z̄).
    """
    accel = stacked_covariant_derivative(tangent.a, tangent.a, tangent.a_z)
    p = np.sum(accel * normal, axis=-1)
    q = 1j * p + tangent.A**2
    return q, grid_dzbar(q, hx, hy)


def gauss_map_tension(normal, phi, hx, hy, angle_cutoff=ANGLE_CUTOFF):
    """Harmonic-map residual of the stereographically projected normal.

    Projects N from the south pole, g = (N1 + i N2)/(1 + N3), and evaluates

        tau = g_zz̄ + 2 conj(g) g_z g_z̄ / (1 - |g|^2),

    the tension field of maps into the hyperbolic disk.  Masked to NaN
    where phi <= angle_cutoff: there |g| -> 1 and the hyperbolic factor
    blows up, so the check is only meaningful on the upward-tilted region.
    Returns (g, tau_masked).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = 1.0 + normal[..., 2]
        denom = np.where(denom == 0.0, np.nan, denom)
        g = (normal[..., 0] + 1j * normal[..., 1]) / denom
        g_z, g_zbar = grid_dz_dzbar(g, hx, hy)
        tau = grid_dzzbar(g, hx, hy) + 2.0 * np.conj(g) * g_z * g_zbar / (
            1.0 - np.abs(g) ** 2
        )
        tau = np.where(phi > angle_cutoff, tau, np.nan)
    return g, tau


def aux_height_consistency(tangent, aux_height, hx, hy):
    """Residual A - i (aux_height)_z linking f_z's vertical part to fhat."""
    return tangent.A - 1j * grid_dz(aux_height, hx, hy)


def fhat_laplace_identity(fhat, hx, hy):
    """Residual of the auxiliary map's Laplace-type identity.

    fhat_zz̄ - (i/4)[fhat_z, fhat_z̄], a matrix field; zero in the
    continuum for surfaces produced by the immersion formula.
    """
    fz, fzb = grid_dz_dzbar(fhat, hx, hy)
    bracket = from_entries(commutator_entries(entries(fz), entries(fzb)))
    return grid_dzzbar(fhat, hx, hy) - 0.25j * bracket


def _interior_max(values, margin):
    """NaN-aware max magnitude over the margin-trimmed interior."""
    values = np.abs(np.asarray(values))
    if margin > 0:
        values = values[margin:-margin, margin:-margin]
    if values.size == 0 or not np.any(np.isfinite(values)):
        return float("nan")
    return float(np.nanmax(values))



def verify_surface(
    surface,
    potential=None,
    angle_cutoff=ANGLE_CUTOFF,
    margin=DEFAULT_TOLERANCES["margin"],
    keep_fields=False,
):
    """Run the full residual suite on a surface grid.

    surface must provide x, y, t, F, height and may provide aux_height,
    fhat, det_deviation, shape_deviation (SurfaceGrid does; externally
    loaded surfaces typically provide only the coordinates, in which case
    the auxiliary classes are skipped and reported as NaN).

    When the generating potential is supplied, the measured metric density
    is compared against rho0 and the measured quadratic differential
    against |Q0| (ratio statistics in the report).

    Raises DomainError when margin < 1 (a zero or negative margin trims
    nothing, or everything, from the interior slices), when an axis has
    fewer than 2 * margin + 3 nodes (the margin-trimmed interior must keep
    at least 3 nodes per axis), or when F or height holds a NaN or an
    infinity: the NaN-aware maxima would drop the stencils around such a
    node.  (The stencils' NaN rings and the Gauss-map angle mask are made
    here, not read from the input.)
    Raises DegenerateNode when the interior metric density drops below
    DEGENERATE_TOL — the data fails to be an immersion there and none of
    the residuals are meaningful.
    """
    x = np.asarray(surface.x, dtype=float)
    y = np.asarray(surface.y, dtype=float)
    if margin < 1:
        raise DomainError(f"margin must be >= 1, got {margin}")
    if min(x.size, y.size) < 2 * margin + 3:
        raise DomainError(
            f"grid {y.size} x {x.size} is too small for margin {margin}: "
            f"need at least {2 * margin + 3} nodes per axis"
        )
    hx = float(x[1] - x[0])
    hy = float(y[1] - y[0])
    F = np.asarray(surface.F, dtype=complex)
    height = np.asarray(surface.height, dtype=float)
    poisoned = ~(np.isfinite(F) & np.isfinite(height))
    if poisoned.any():
        iy, ix = np.argwhere(poisoned)[0]
        raise DomainError(
            f"surface coordinates are not finite at "
            f"{int(np.count_nonzero(poisoned))} node(s), the first at "
            f"(x, y) = ({x[ix]:.6g}, {y[iy]:.6g})"
        )

    # The matrix field's stencils are the largest temporaries of the
    # suite; taking them before the tangent data exists lowers the peak.
    fhat = getattr(surface, "fhat", None)
    fhat_res = fhat_laplace_identity(fhat, hx, hy) if fhat is not None else None

    tangent = tangent_frame_coeffs(F, height, hx, hy)
    conf, rho = conformality_residual(tangent)

    rho_interior = rho[margin:-margin, margin:-margin]
    finite_rho = rho_interior[np.isfinite(rho_interior)]
    if finite_rho.size and float(np.min(finite_rho)) < DEGENERATE_TOL:
        raise DegenerateNode(
            f"metric density {np.min(finite_rho):.3e} below "
            f"{DEGENERATE_TOL:.1e}; surface degenerates on the grid interior"
        )

    r1, r2 = minimality_residuals(tangent, F, hx, hy)
    cov = covariant_minimality_residual(tangent)
    cov_norm = np.linalg.norm(cov, axis=-1)
    normal, phi = unit_normal(tangent)
    q, q_zbar = quadratic_differential(tangent, normal, hx, hy)
    g, tau = gauss_map_tension(normal, phi, hx, hy, angle_cutoff=angle_cutoff)

    aux_height = getattr(surface, "aux_height", None)
    aux_res = (
        aux_height_consistency(tangent, aux_height, hx, hy)
        if aux_height is not None
        else None
    )

    fields = {
        "conformality": conf,
        "minimality_horizontal": r1,
        "minimality_vertical": r2,
        "covariant_minimality": cov_norm,
        "aux_height_consistency": aux_res,
        "hopf_holomorphy": q_zbar,
        "gauss_map_tension": tau,
        "fhat_laplace_identity": fhat_res,
    }
    maxima = {
        k: (_interior_max(v, margin) if v is not None else float("nan"))
        for k, v in fields.items()
    }
    maxima_ungated = {
        k: (_interior_max(v, 0) if v is not None else float("nan"))
        for k, v in fields.items()
    }

    interior = (slice(margin, -margin), slice(margin, -margin))
    phi_interior = phi[interior]
    phi_finite = phi_interior[np.isfinite(phi_interior)]
    tau_interior = tau[interior]
    # interior nodes whose tension was computable vs masked out by angle
    evaluated = int(np.count_nonzero(np.isfinite(tau_interior)))
    maskable = int(np.count_nonzero(np.isfinite(phi_interior)))
    skipped = maskable - int(np.count_nonzero(phi_interior > angle_cutoff))

    rho_ratio_mean = rho_ratio_spread = None
    q_ratio_mean = q_ratio_spread = None
    if potential is not None:
        z_nodes = (x[None, :] + 1j * y[:, None])[interior]
        rho0 = potential.rho0(z_nodes)
        ratio = rho_interior / rho0
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            rho_ratio_mean = float(np.mean(ratio))
            rho_ratio_spread = float(np.std(ratio))
        q0 = potential.q0(z_nodes)
        q_interior = np.abs(q[interior])
        ok = (np.abs(q0) > 1e-12) & np.isfinite(q_interior)
        if np.any(ok):
            qr = q_interior[ok] / np.abs(q0[ok])
            q_ratio_mean = float(np.mean(qr))
            q_ratio_spread = float(np.std(qr))

    report = ResidualReport(
        t=float(getattr(surface, "t", 0.0)),
        nx=x.size,
        ny=y.size,
        spacing=(hx, hy),
        margin=margin,
        maxima=maxima,
        maxima_ungated=maxima_ungated,
        rho_min=float(np.min(finite_rho)) if finite_rho.size else float("nan"),
        rho_max=float(np.max(finite_rho)) if finite_rho.size else float("nan"),
        rho_mean=float(np.mean(finite_rho)) if finite_rho.size else float("nan"),
        phi_min_observed=float(np.min(phi_finite)) if phi_finite.size else float("nan"),
        phi_max_observed=float(np.max(phi_finite)) if phi_finite.size else float("nan"),
        tension_evaluated=evaluated,
        tension_skipped=skipped,
        det_deviation=float(getattr(surface, "det_deviation", float("nan"))),
        shape_deviation=float(getattr(surface, "shape_deviation", float("nan"))),
        rho_ratio_mean=rho_ratio_mean,
        rho_ratio_spread=rho_ratio_spread,
        q_ratio_mean=q_ratio_mean,
        q_ratio_spread=q_ratio_spread,
    )
    if keep_fields:
        report.fields = {k: v for k, v in fields.items() if v is not None}
        report.fields["metric_density"] = rho
        report.fields["angle_function"] = phi
        report.fields["quadratic_differential"] = q
        report.fields["gauss_map"] = g
        report.fields["normal"] = normal
    return report

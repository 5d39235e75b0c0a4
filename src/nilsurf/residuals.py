"""Differential-geometric verification of surfaces in the ambient space.

Everything here treats a surface as data: grids of the horizontal
coordinate F = x1 + i x2 and the height x3 on a uniform rectangular
parameter grid.  No knowledge of how the surface was produced is used, so
the same suite verifies generated surfaces and externally supplied ones.

The suite checks, by central finite differences,

  * conformality:        <f_z, f_z> = 0 (bilinear metric, frame coeffs);
  * minimality:          the horizontal coordinate satisfies
                         F_zz̄ = (i/2)(conj(A) F_z + A F_z̄) and the
                         vertical frame coefficient A has Re A_z̄ = 0;
  * covariant form:      nabla_{f_z} f_z̄ = 0 (tension field, equivalent
                         statement of minimality in frame coefficients);
  * quadratic differential: Q = i <nabla_{f_z} f_z, N> + A^2 is
                         holomorphic (|Q_z̄| small) — the Abresch-
                         Rosenberg-type differential of the surface;
  * Gauss map harmonicity: the south-pole stereographic projection g of
                         the unit normal satisfies the harmonic-map
                         equation into the hyperbolic disk,
                         g_zz̄ + 2 conj(g) g_z g_z̄ / (1 - |g|^2) = 0,
                         evaluated where the normal's vertical angle
                         function phi = <N, E3> stays above a cutoff
                         (the projection degenerates as phi -> 0);
  * auxiliary consistency: when the companion height from the generating
                         auxiliary map is available, A = i (aux height)_z;
  * auxiliary Laplace identity: when the auxiliary matrix field is
                         available, fhat_zz̄ = (i/4)[fhat_z, fhat_z̄].

The suite works on component planes: one 2-D array per component (x1,
x2, x3; the three frame coefficients of f_z; the four entries of fhat),
each covering only the nodes its stencils reach.  A
plane "of trim k" holds the nodes k in from every side: the tangent data,
normal and Gauss map have trim 1, quantities built from differences of
them trim 2, and Q_z̄ trim 3.  Each class takes |·| once, reads its
margin-gated and ungated maxima off that one array and is dropped.  NaN
rings appear only in the fields kept on request (`keep_fields`), which
are padded back to grid shape, and in the `grid_*` stencil wrappers.
Reported max-norms exclude a configurable boundary margin (default 2
nodes) because second-difference quantities lose an order there; the
ungated maxima are reported alongside for transparency.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DegenerateNode, DomainError
from .mat2 import commutator_entries, entries, from_entries
from .nil3 import covariant_derivative_planes, vertical_form_planes

#: Interior metric density below which verify_surface raises DegenerateNode.
DEGENERATE_TOL = 1e-8

#: The stencils difference with one step per axis.  CSV round trips of a
#: uniform axis deviate by ~1e-13 relative; a misplaced node is off by
#: order 1.
UNIFORM_SPACING_RTOL = 1e-6

#: Nodes per axis the widest class needs: Q_z̄ (hopf_holomorphy) is a
#: difference of a difference of a difference, so it reaches 3 nodes in
#: from each side and has a node only on 7 or more.
MIN_STENCIL_NODES = 7

#: Stable keys of the residual classes, in reporting order.
RESIDUAL_KEYS = (
    "conformality",
    "minimality_horizontal",
    "minimality_vertical",
    "covariant_minimality",
    "aux_height_consistency",
    "hopf_holomorphy",
    "gauss_map_tension",
    "fhat_laplace_identity",
)

#: Classes computed from the coordinates of every surface, so each must
#: have a finite value on the interior.  gauss_map_tension is computed from
#: them too, but the angle cutoff may mask every node (the exact vertical
#: plane); the classifier fails its NaN only where the mask kept a node.
COORDINATE_KEYS = (
    "conformality",
    "minimality_horizontal",
    "minimality_vertical",
    "covariant_minimality",
    "hopf_holomorphy",
)


def nonuniform_step(axis):
    """(mean step, worst step deviation) when axis breaks the uniform rule.

    The rule: the mean step is finite and nonzero, and every step lies
    within UNIFORM_SPACING_RTOL of it (in magnitude).  Returns None for an
    axis that keeps it; a NaN or an infinity anywhere breaks it.
    """
    axis = np.asarray(axis, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_step = float((axis[-1] - axis[0]) / (axis.size - 1))
        worst = float(np.max(np.abs(np.diff(axis) - mean_step)))
    if (
        math.isfinite(mean_step)
        and mean_step != 0.0
        and worst <= UNIFORM_SPACING_RTOL * abs(mean_step)
    ):
        return None
    return mean_step, worst


def _xy_differences(f, hx, hy):
    """(f_x/2, i f_y/2) by central differences on the interior.

    A real f is differenced in real arithmetic; i f_y/2 is complex.
    """
    f = np.asarray(f)
    fx = (f[1:-1, 2:] - f[1:-1, :-2]) / (4.0 * hx)
    ify = 1j * ((f[2:, 1:-1] - f[:-2, 1:-1]) / (4.0 * hy))
    return fx, ify


def _dz(f, hx, hy):
    """d/dz = (d/dx - i d/dy)/2 on the nodes one in from every side."""
    fx, ify = _xy_differences(f, hx, hy)
    return fx - ify


def _dzbar(f, hx, hy):
    """d/dz̄ = (d/dx + i d/dy)/2 on the nodes one in from every side."""
    fx, ify = _xy_differences(f, hx, hy)
    return fx + ify


def _dz_dzbar(f, hx, hy):
    """(d/dz, d/dz̄) of one plane from a single pair of x/y differences."""
    fx, ify = _xy_differences(f, hx, hy)
    return fx - ify, fx + ify


def _dzzbar(f, hx, hy):
    """d2/dz dz̄ = Laplacian/4 by the 5-point stencil, one node in."""
    f = np.asarray(f)
    lap = (f[1:-1, 2:] + f[1:-1, :-2] - 2.0 * f[1:-1, 1:-1]) / hx**2 + (
        f[2:, 1:-1] + f[:-2, 1:-1] - 2.0 * f[1:-1, 1:-1]
    ) / hy**2
    return lap / 4.0


def _nan_ring(interior, width=1, dtype=complex):
    """interior inside a ring of NaN `width` nodes wide."""
    ny, nx = interior.shape[:2]
    out = np.full(
        (ny + 2 * width, nx + 2 * width) + interior.shape[2:], np.nan, dtype=dtype
    )
    out[width:-width, width:-width] = interior
    return out


def grid_dz(f, hx, hy):
    """d/dz = (d/dx - i d/dy)/2 by central differences.

    f has shape (ny, nx, ...); the outermost ring of nodes gets NaN since
    the stencil does not fit there.
    """
    return _nan_ring(_dz(f, hx, hy))


def grid_dzbar(f, hx, hy):
    """d/dz̄ = (d/dx + i d/dy)/2 by central differences (NaN ring)."""
    return _nan_ring(_dzbar(f, hx, hy))


def grid_dz_dzbar(f, hx, hy):
    """(d/dz, d/dz̄) of one field from a single pair of x/y differences."""
    return tuple(_nan_ring(d) for d in _dz_dzbar(f, hx, hy))


def grid_dzzbar(f, hx, hy):
    """d2/dz dz̄ = Laplacian/4 by the 5-point stencil (NaN ring)."""
    return _nan_ring(_dzzbar(f, hx, hy))


def _inner(plane, k=1):
    """The nodes k in from every side of a plane."""
    return plane[k : plane.shape[0] - k, k : plane.shape[1] - k]


def _nanmax(magnitudes):
    """NaN-aware max over |·| planes; NaN when none holds a finite value."""
    top = np.nan
    for m in magnitudes:
        top = np.fmax(top, np.fmax.reduce(m, axis=None, initial=np.nan))
    if top == np.inf and not any(np.isfinite(m).any() for m in magnitudes):
        return float("nan")
    return float(top)


def _maxima(magnitudes, trim, margin):
    """(gated, ungated) maxima of a class's |·| planes of trim `trim`.

    The gate drops `margin` nodes from every side of the grid; the planes
    already lack `trim` of them.
    """
    inset = max(margin - trim, 0)
    gated = [_inner(m, inset) for m in magnitudes]
    return _nanmax(gated), _nanmax(magnitudes)


@dataclass
class ResidualReport:
    """Max-norm summary of one surface verification.

    maxima holds the margin-gated interior max-norms keyed by
    RESIDUAL_KEYS (NaN when a class was not computable, e.g. no auxiliary
    data); maxima_ungated holds the same without the boundary margin.
    Ratio statistics compare the measured metric density and quadratic
    differential against the generating potential when one is supplied.
    Fields (the raw residual grids) are retained only on request.
    """

    t: float
    nx: int
    ny: int
    spacing: tuple
    margin: int
    angle_cutoff: float
    maxima: dict
    maxima_ungated: dict
    rho_min: float
    rho_max: float
    rho_mean: float
    phi_min_observed: float
    phi_max_observed: float
    tension_evaluated: int
    tension_skipped: int
    det_deviation: float = float("nan")
    shape_deviation: float = float("nan")
    rho_ratio_mean: float = None
    rho_ratio_spread: float = None
    q_ratio_mean: float = None
    q_ratio_spread: float = None
    fields: dict = dataclass_field(default_factory=dict)

    def to_dict(self):
        """JSON-ready dictionary (no arrays, fixed key set)."""

        def _clean(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "t": float(self.t),
            "grid": {
                "nx": int(self.nx),
                "ny": int(self.ny),
                "hx": _clean(self.spacing[0]),
                "hy": _clean(self.spacing[1]),
            },
            "margin": int(self.margin),
            "angle_cutoff": float(self.angle_cutoff),
            "maxima": {k: _clean(v) for k, v in self.maxima.items()},
            "maxima_ungated": {
                k: _clean(v) for k, v in self.maxima_ungated.items()
            },
            "metric_density": {
                "min": _clean(self.rho_min),
                "max": _clean(self.rho_max),
                "mean": _clean(self.rho_mean),
                "ratio_to_potential_mean": _clean(self.rho_ratio_mean),
                "ratio_to_potential_spread": _clean(self.rho_ratio_spread),
            },
            "quadratic_differential": {
                "ratio_to_potential_mean": _clean(self.q_ratio_mean),
                "ratio_to_potential_spread": _clean(self.q_ratio_spread),
            },
            "angle_function": {
                "min": _clean(self.phi_min_observed),
                "max": _clean(self.phi_max_observed),
            },
            "tension_nodes": {
                "evaluated": int(self.tension_evaluated),
                "skipped": int(self.tension_skipped),
            },
            "frame_invariants": {
                "det_deviation": _clean(self.det_deviation),
                "shape_deviation": _clean(self.shape_deviation),
            },
        }


def _checked_grid(surface, margin):
    """(x, y, F, height) of a surface whose grid the suite can difference.

    Raises DomainError for anything the stencils cannot use; see
    verify_surface.
    """
    x = np.asarray(surface.x, dtype=float)
    y = np.asarray(surface.y, dtype=float)
    F = np.asarray(surface.F, dtype=complex)
    height = np.asarray(surface.height, dtype=float)
    if margin < 1:
        raise DomainError(f"margin must be >= 1, got {margin}")
    if x.ndim != 1 or y.ndim != 1 or F.shape != (y.size, x.size):
        raise DomainError(
            f"F has shape {F.shape}, but the axes give a "
            f"{y.size} x {x.size} grid (ny, nx)"
        )
    companions = (
        ("height", height, F.shape),
        ("aux_height", getattr(surface, "aux_height", None), F.shape),
        ("fhat", getattr(surface, "fhat", None), F.shape + (2, 2)),
    )
    for name, value, shape in companions:
        if value is not None and np.shape(value) != shape:
            raise DomainError(
                f"{name} has shape {np.shape(value)}, expected {shape}"
            )
    need = max(2 * margin + 3, MIN_STENCIL_NODES)
    if min(x.size, y.size) < need:
        raise DomainError(
            f"grid {y.size} x {x.size} is too small for margin {margin}: "
            f"need at least {need} nodes per axis"
        )
    for name, axis in (("x", x), ("y", y)):
        bad = nonuniform_step(axis)
        if bad is not None:
            raise DomainError(
                f"{name} axis is not uniformly spaced (a step deviates from "
                f"the mean {bad[0]:.6g} by {bad[1]:.3g}); the stencils "
                f"difference with one step"
            )
    poisoned = ~(np.isfinite(F) & np.isfinite(height))
    if poisoned.any():
        iy, ix = np.argwhere(poisoned)[0]
        raise DomainError(
            f"surface coordinates are not finite at "
            f"{int(np.count_nonzero(poisoned))} node(s), the first at "
            f"(x, y) = ({x[ix]:.6g}, {y[iy]:.6g})"
        )
    return x, y, F, height


def verify_surface(
    surface,
    potential=None,
    angle_cutoff=DEFAULT_TOLERANCES["angle_cutoff"],
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
    nothing, or everything, from the interior slices); when F's shape is
    not (y.size, x.size) or height, aux_height or fhat does not match it;
    when an axis has fewer than max(2 * margin + 3, MIN_STENCIL_NODES)
    nodes (the margin-trimmed interior must keep at least 3 nodes per
    axis, and hopf_holomorphy's stencil reaches 3 nodes in from each
    side); when an axis breaks the uniform-spacing rule of
    `nonuniform_step` (the stencils difference with the first step
    throughout); or when F or height holds a NaN or an infinity: the
    NaN-aware maxima would drop the stencils around such a node.  (The
    Gauss-map angle mask is made here, not read from the input.)
    Raises DegenerateNode when the interior metric density drops below
    DEGENERATE_TOL — the data fails to be an immersion there and none of
    the residuals are meaningful.

    With keep_fields, report.fields holds each computed class's residual
    grid (covariant_minimality as the norm of the tension field) and the
    metric_density, angle_function, quadratic_differential, gauss_map and
    normal grids, all of grid shape with NaN where a stencil does not fit.
    """
    x, y, F, height = _checked_grid(surface, margin)
    hx = float(x[1] - x[0])
    hy = float(y[1] - y[0])
    maxima = dict.fromkeys(RESIDUAL_KEYS, float("nan"))
    maxima_ungated = dict(maxima)
    fields = {}

    def settle(key, planes, trim):
        """Record a class's maxima from its planes, keeping them on request."""
        magnitudes = [np.abs(p) for p in planes]
        maxima[key], maxima_ungated[key] = _maxima(magnitudes, trim, margin)
        if keep_fields:
            field = planes[0] if len(planes) == 1 else from_entries(planes)
            fields[key] = _nan_ring(field, trim, field.dtype)

    # The matrix field's stencils are the largest temporaries of the
    # suite; taking them before the tangent data exists lowers the peak.
    fhat = getattr(surface, "fhat", None)
    if fhat is not None:
        fhat = [np.ascontiguousarray(e) for e in entries(fhat)]
        derivatives = [_dz_dzbar(e, hx, hy) for e in fhat]
        bracket = commutator_entries(*zip(*derivatives))
        del derivatives
        settle(
            "fhat_laplace_identity",
            [_dzzbar(e, hx, hy) - 0.25j * c for e, c in zip(fhat, bracket)],
            1,
        )
        del fhat, bracket

    # Frame coefficients of f_z (trim 1): the coordinate z-derivatives,
    # the third made vertical by nil3's vertical form.
    x1, x2 = np.ascontiguousarray(F.real), np.ascontiguousarray(F.imag)
    a = [_dz(c, hx, hy) for c in (x1, x2, height)]
    a[2] = vertical_form_planes((_inner(x1), _inner(x2)), a)
    a0, a1, A = a

    conf = a0 * a0 + a1 * a1 + A * A
    rho = 2.0 * (np.abs(a0) ** 2 + np.abs(a1) ** 2 + np.abs(A) ** 2)
    rho_window = _inner(rho, margin - 1)
    rho_interior = rho_window[np.isfinite(rho_window)]
    if rho_interior.size and float(np.min(rho_interior)) < DEGENERATE_TOL:
        raise DegenerateNode(
            f"metric density {np.min(rho_interior):.3e} below "
            f"{DEGENERATE_TOL:.1e}; surface degenerates on the grid interior"
        )
    settle("conformality", [conf], 1)
    del conf

    F_z = a0 + 1j * a1
    F_zbar = np.conj(a0) + 1j * np.conj(a1)
    settle(
        "minimality_horizontal",
        [_dzzbar(F, hx, hy) - 0.5j * (np.conj(A) * F_z + A * F_zbar)],
        1,
    )
    del F_z, F_zbar

    aux_height = getattr(surface, "aux_height", None)
    if aux_height is not None:
        settle("aux_height_consistency", [A - 1j * _dz(aux_height, hx, hy)], 1)

    # Unit normal from the real coordinate-direction tangents f_x = 2 Re a
    # and f_y = -2 Im a; the frame is orthonormal, so the Euclidean cross
    # product computes the metric normal (NaN where it vanishes).
    fx = [2.0 * c.real for c in a]
    fy = [-2.0 * c.imag for c in a]
    cross = (
        fx[1] * fy[2] - fx[2] * fy[1],
        fx[2] * fy[0] - fx[0] * fy[2],
        fx[0] * fy[1] - fx[1] * fy[0],
    )
    del fx, fy
    norm = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    safe = np.where(norm == 0.0, 1.0, norm)
    normal = [np.where(norm == 0.0, np.nan, c / safe) for c in cross]
    del cross, safe, norm
    phi = normal[2]

    # Derivatives of the frame coefficients (trim 2).
    a_z, a_zbar = zip(*(_dz_dzbar(c, hx, hy) for c in a))
    a_in = [_inner(c) for c in a]
    del a

    settle("minimality_vertical", [a_zbar[2] + np.conj(a_zbar[2])], 2)

    # nabla_{f_z} f_z̄: the coefficients of f_z̄ are conj(a) and their
    # z-derivatives conj(a_z̄), since f is real.
    cov = covariant_derivative_planes(
        a_in, [np.conj(c) for c in a_in], [np.conj(c) for c in a_zbar]
    )
    del a_zbar
    squares = [(np.conj(c) * c).real for c in cov]
    cov_norm = np.sqrt(squares[0] + squares[1] + squares[2])
    del cov, squares
    settle("covariant_minimality", [cov_norm], 2)
    del cov_norm

    # Q = i <nabla_{f_z} f_z, N> + A^2 (trim 2) and its z̄-derivative.
    accel = covariant_derivative_planes(a_in, a_in, a_z)
    del a_z
    normal_in = [_inner(c) for c in normal]
    q = 1j * (
        accel[0] * normal_in[0] + accel[1] * normal_in[1] + accel[2] * normal_in[2]
    ) + a_in[2] ** 2
    del accel, normal_in, a_in
    settle("hopf_holomorphy", [_dzbar(q, hx, hy)], 3)

    # Harmonic-map residual of g = (N1 + i N2)/(1 + N3), the south-pole
    # stereographic projection of the normal, masked to NaN where
    # phi <= angle_cutoff: there |g| -> 1 and the hyperbolic factor blows
    # up, so the check is only meaningful on the upward-tilted region.
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = 1.0 + normal[2]
        denom = np.where(denom == 0.0, np.nan, denom)
        g = (normal[0] + 1j * normal[1]) / denom
        del denom
        g_z, g_zbar = _dz_dzbar(g, hx, hy)
        g_in = _inner(g)
        tau = _dzzbar(g, hx, hy) + 2.0 * np.conj(g_in) * g_z * g_zbar / (
            1.0 - np.abs(g_in) ** 2
        )
        del g_z, g_zbar, g_in
        tau = np.where(_inner(phi) > angle_cutoff, tau, np.nan)
    settle("gauss_map_tension", [tau], 2)

    phi_window = _inner(phi, margin - 1)
    phi_finite = phi_window[np.isfinite(phi_window)]
    # interior nodes whose tension was computable vs masked out by angle
    evaluated = int(np.count_nonzero(np.isfinite(_inner(tau, max(margin - 2, 0)))))
    skipped = phi_finite.size - int(np.count_nonzero(phi_window > angle_cutoff))

    rho_ratio_mean = rho_ratio_spread = None
    q_ratio_mean = q_ratio_spread = None
    if potential is not None:
        z_nodes = x[None, :] + 1j * y[:, None]
        ratio = rho_window / potential.rho0(_inner(z_nodes, margin))
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            rho_ratio_mean = float(np.mean(ratio))
            rho_ratio_spread = float(np.std(ratio))
        # Q has trim 2: under a margin of 1 its first ring is not there
        inset = max(margin, 2)
        q0 = potential.q0(_inner(z_nodes, inset))
        q_window = np.abs(_inner(q, inset - 2))
        ok = (np.abs(q0) > 1e-12) & np.isfinite(q_window)
        if np.any(ok):
            qr = q_window[ok] / np.abs(q0[ok])
            q_ratio_mean = float(np.mean(qr))
            q_ratio_spread = float(np.std(qr))

    def statistic(values, reduce):
        return float(reduce(values)) if values.size else float("nan")

    report = ResidualReport(
        t=float(getattr(surface, "t", 0.0)),
        nx=x.size,
        ny=y.size,
        spacing=(hx, hy),
        margin=margin,
        angle_cutoff=angle_cutoff,
        maxima=maxima,
        maxima_ungated=maxima_ungated,
        rho_min=statistic(rho_interior, np.min),
        rho_max=statistic(rho_interior, np.max),
        rho_mean=statistic(rho_interior, np.mean),
        phi_min_observed=statistic(phi_finite, np.min),
        phi_max_observed=statistic(phi_finite, np.max),
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
        # the classes in reporting order, then the geometric fields
        report.fields = {k: fields[k] for k in RESIDUAL_KEYS if k in fields}
        report.fields.update(
            metric_density=_nan_ring(rho, 1, rho.dtype),
            angle_function=_nan_ring(phi, 1, phi.dtype),
            quadratic_differential=_nan_ring(q, 2, q.dtype),
            gauss_map=_nan_ring(g, 1, g.dtype),
            normal=_nan_ring(np.stack(normal, axis=-1), 1, phi.dtype),
        )
    return report

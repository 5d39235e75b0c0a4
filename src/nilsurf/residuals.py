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
                         function phi = <N, E3> stays above ANGLE_CUTOFF
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
rings appear only in the grid planes verify_surface keeps (rho, phi, Q
and, on request, every field), which have grid shape.

The class kernel (_class_planes) is the one code that computes the
classes, on a block of grid rows; verify_surface is its fold, which
gates the grid, runs the kernel block by block and judges the whole.

The Nil3 geometry (the vertical form, the covariant derivative and the
stereographic chart of the Gauss map) comes from the nil3 module, the
2x2 algebra of fhat from mat2, and the stencils, the rule for their
axes and the split into row blocks from the stencils module.  Reported
max-norms exclude a configurable boundary margin (default 2 nodes)
because second-difference quantities lose an order there; the ungated
maxima are reported alongside for transparency.

RESIDUAL_CLASSES is the one list of the classes, in reporting order, with
their threshold coefficients; the report counts, per class, the gated
nodes where it had its inputs (`ResidualReport.evaluated`).  Beside it
live the one threshold law, max(RESIDUAL_FLOOR, scale * C * h^2), which
matches the second-order convergence of every class, and the one
classifier rule.
verify_surface applies both: it is the one call that judges a surface,
generated or read.  A report writes NaN and infinities as null
(`_json_number`).
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .config import DEFAULT_TOLERANCES, check_tolerances
from .errors import DegenerateNode, DomainError
from .mat2 import commutator_entries, entries
from .nil3 import covariant_derivative, stereographic_south, vertical_form
from .stencils import axis_steps, dz, dz_dzbar, dzbar, dzzbar, less_quarter_i
from .stencils import row_blocks

#: Interior metric density below which verify_surface raises DegenerateNode.
DEGENERATE_TOL = 1e-8

#: Angle function phi = <N, E3> at or below which gauss_map_tension is not
#: evaluated: the stereographic chart of the Gauss map degenerates as
#: phi -> 0 (|g| -> 1).
ANGLE_CUTOFF = 0.05

#: Roundoff floor of the threshold law max(RESIDUAL_FLOOR, scale * C * h^2).
RESIDUAL_FLOOR = 1e-10

#: The stencils difference with one step per axis.  CSV round trips of a
#: uniform axis deviate by ~1e-13 relative; a misplaced node is off by
#: order 1.
UNIFORM_SPACING_RTOL = 1e-6

#: Nodes per axis the widest class needs: Q_z̄ (hopf_holomorphy) is a
#: difference of a difference of a difference, so it reaches 3 nodes in
#: from each side and has a node only on 7 or more.
MIN_STENCIL_NODES = 7

#: Most grid nodes a block of verify_surface owns (stencils.row_blocks).
#: The 49 x 49 and 129 x 129 grids are one block; 257 x 257 is three of
#: 85-86 rows, whose temporaries are about a third of the whole grid's.
VERIFY_BLOCK_NODES = 32768

#: The residual classes in reporting order, each with its coefficient C in
#: the threshold law of `residual_thresholds`, calibrated with ~10x
#: headroom over the flagship configurations.
RESIDUAL_CLASSES = {
    "conformality": 2.0,
    "minimality_horizontal": 0.5,
    "minimality_vertical": 1.0,
    "covariant_minimality": 1.5,
    "aux_height_consistency": 1.5,
    "hopf_holomorphy": 0.6,
    "gauss_map_tension": 0.25,
    "fhat_laplace_identity": 0.5,
}

#: Stable keys of the residual classes, in reporting order.
RESIDUAL_KEYS = tuple(RESIDUAL_CLASSES)

#: A kept field's entry axes by its number of planes: a vector of the
#: normal's three components, and fhat_laplace_identity's 2 x 2 entries.
_ENTRY_AXES = {1: (), 3: (3,), 4: (2, 2)}


def residual_thresholds(h, scale=DEFAULT_TOLERANCES["threshold_scale"]):
    """Threshold per residual class: max(RESIDUAL_FLOOR, scale * C * h^2)."""
    return {
        key: max(RESIDUAL_FLOOR, scale * coeff * h * h)
        for key, coeff in RESIDUAL_CLASSES.items()
    }


def classify_report(report, thresholds):
    """Compare a ResidualReport's maxima against thresholds.

    A class fails when its maximum exceeds its threshold, or when its
    maximum is NaN (no finite value, from overflowed derivatives, say)
    and report.evaluated counts nodes where it had its inputs; with none
    it is not computable and skipped.  Returns (passed, failures) where
    failures lists (key, value, threshold) triples.
    """
    failures = []
    for key in RESIDUAL_KEYS:
        value, threshold = report.maxima[key], thresholds[key]
        if value > threshold or (math.isnan(value) and report.evaluated[key] > 0):
            failures.append((key, value, threshold))
    return (not failures), failures


def _json_number(value):
    """value as a JSON number: None (null) for None, a NaN or an infinity,
    which JSON cannot write."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _inner(plane, k=1):
    """The nodes k in from every side of a plane."""
    return plane[k : plane.shape[0] - k, k : plane.shape[1] - k]


#: The _peak fold of no plane: no maximum, and no finite value seen.
_NO_PEAK = (np.nan, False)


def _peak(magnitudes, peak=_NO_PEAK):
    """peak, a (NaN-aware max, whether a finite value was seen) pair,
    folded with more |·| planes."""
    top, finite = peak
    for m in magnitudes:
        m_top = np.fmax.reduce(m, axis=None, initial=np.nan)
        top = np.fmax(top, m_top)
        finite = finite or m_top < np.inf or (m_top == np.inf and np.isfinite(m).any())
    return top, finite


def _nanmax(peak):
    """The max of a _peak fold; NaN when no plane held a finite value."""
    top, finite = peak
    return float("nan") if top == np.inf and not finite else float(top)


@dataclass
class ResidualReport:
    """Max-norm summary of one surface verification.

    maxima holds the margin-gated interior max-norms keyed by
    RESIDUAL_KEYS (NaN when a class was not computable, e.g. no auxiliary
    data); maxima_ungated holds the same without the boundary margin.
    evaluated counts, per class, the margin-gated nodes where the class
    had its inputs: 0 without its data, and for gauss_map_tension the
    interior nodes the angle cutoff keeps (tension_evaluated, serialized,
    counts its finite values).
    Ratio statistics compare the measured metric density and quadratic
    differential against the generating potential when one is supplied.
    Fields (the raw residual grids) are retained only on request.  The
    verdict (thresholds, passed, failures) is not in to_dict; a report
    built without one reads as failed.
    """

    t: float
    nx: int
    ny: int
    spacing: tuple
    margin: int
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
    evaluated: dict = dataclass_field(default_factory=dict)
    rho_ratio_mean: float = None
    rho_ratio_spread: float = None
    q_ratio_mean: float = None
    q_ratio_spread: float = None
    fields: dict = dataclass_field(default_factory=dict)
    thresholds: dict = dataclass_field(default_factory=dict)
    passed: bool = False
    failures: list = dataclass_field(default_factory=list)

    def to_dict(self):
        """JSON-ready dictionary (no arrays, fixed key set)."""
        return {
            "t": float(self.t),
            "grid": {
                "nx": int(self.nx),
                "ny": int(self.ny),
                "hx": _json_number(self.spacing[0]),
                "hy": _json_number(self.spacing[1]),
            },
            "margin": int(self.margin),
            "angle_cutoff": ANGLE_CUTOFF,
            "maxima": {k: _json_number(v) for k, v in self.maxima.items()},
            "maxima_ungated": {
                k: _json_number(v) for k, v in self.maxima_ungated.items()
            },
            "metric_density": {
                "min": _json_number(self.rho_min),
                "max": _json_number(self.rho_max),
                "mean": _json_number(self.rho_mean),
                "ratio_to_potential_mean": _json_number(self.rho_ratio_mean),
                "ratio_to_potential_spread": _json_number(self.rho_ratio_spread),
            },
            "quadratic_differential": {
                "ratio_to_potential_mean": _json_number(self.q_ratio_mean),
                "ratio_to_potential_spread": _json_number(self.q_ratio_spread),
            },
            "angle_function": {
                "min": _json_number(self.phi_min_observed),
                "max": _json_number(self.phi_max_observed),
            },
            "tension_nodes": {
                "evaluated": int(self.tension_evaluated),
                "skipped": int(self.tension_skipped),
            },
            "frame_invariants": {
                "det_deviation": _json_number(self.det_deviation),
                "shape_deviation": _json_number(self.shape_deviation),
            },
        }

    def threshold_entries(self):
        """The thresholds as JSON numbers, keyed by class."""
        return {k: _json_number(v) for k, v in self.thresholds.items()}

    def failure_entries(self):
        """The failures as JSON entries {residual, value, threshold}."""
        return [
            {"residual": k, "value": _json_number(v), "threshold": _json_number(thr)}
            for k, v, thr in self.failures
        ]


def _checked_grid(surface, margin):
    """(x, y, F, height, aux_height, fhat, (hx, hy, h)) of a surface whose
    grid the suite can difference: hx and hy the axes' first steps and h
    the larger mean step |a[-1] - a[0]| / (n - 1), by stencils.axis_steps;
    aux_height and fhat are None when the surface lacks them.  Raises
    DomainError for anything the stencils cannot use (verify_surface).
    """
    x = np.asarray(surface.x, dtype=float)
    y = np.asarray(surface.y, dtype=float)
    F = np.asarray(surface.F, dtype=complex)
    height = np.asarray(surface.height, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or F.shape != (y.size, x.size):
        raise DomainError(
            f"F has shape {F.shape}, but the axes give a "
            f"{y.size} x {x.size} grid (ny, nx)"
        )
    aux_height = getattr(surface, "aux_height", None)
    fhat = getattr(surface, "fhat", None)
    companions = (
        ("height", height, F.shape),
        ("aux_height", aux_height, F.shape),
        ("fhat", fhat, F.shape + (2, 2)),
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
    hx, x_mean = axis_steps(x, UNIFORM_SPACING_RTOL, "x")
    hy, y_mean = axis_steps(y, UNIFORM_SPACING_RTOL, "y")
    finite = {"surface coordinates are": np.isfinite(F) & np.isfinite(height)}
    if aux_height is not None:
        finite["aux_height is"] = np.isfinite(aux_height)
    if fhat is not None:
        finite["fhat is"] = np.isfinite(fhat)
    for subject, ok in finite.items():
        if not ok.all():
            # per node only now: finite where every entry there is
            ok = ok.reshape(F.shape + (-1,)).all(axis=-1)
            iy, ix = np.argwhere(~ok)[0]
            raise DomainError(
                f"{subject} not finite at {int(np.count_nonzero(~ok))} "
                f"node(s), the first at (x, y) = ({x[ix]:.6g}, {y[iy]:.6g})"
            )
    h = max(abs(x_mean), abs(y_mean))
    return x, y, F, height, aux_height, fhat, (hx, hy, h)


def _class_planes(F, height, aux_height, fhat, hx, hy):
    """Yield (key, planes, trim) for each class of the grid rows F and
    height (aux_height and fhat None when the surface lacks them) and for
    the geometric planes metric_density, angle_function,
    quadratic_differential, gauss_map and normal, in the order of
    computation: trim-`trim` planes of the rows, one per key but the
    entries of fhat_laplace_identity (mat2.entries order) and normal's
    three components.  The stencils are local and difference with the
    grid's steps hx and hy, and NumPy's element-wise arithmetic does not
    depend on where in an array a node sits, so rows of a block give each
    node the value of one pass over the grid.  A caller drops each yield's
    planes before resuming, or two classes' temporaries are alive at once.
    """
    # The matrix field's stencils are the largest temporaries of the
    # suite; taking them before the tangent data exists lowers the peak.
    if fhat is not None:
        e = [np.ascontiguousarray(c) for c in entries(fhat)]
        derivatives = [dz_dzbar(c, hx, hy) for c in e]
        bracket = commutator_entries(*zip(*derivatives))
        del derivatives
        yield (
            "fhat_laplace_identity",
            [less_quarter_i(dzzbar(c, hx, hy), b) for c, b in zip(e, bracket)],
            1,
        )
        del e, bracket

    # Frame coefficients of f_z (trim 1): the coordinate z-derivatives,
    # the third made vertical by nil3's vertical form.
    x1, x2 = np.ascontiguousarray(F.real), np.ascontiguousarray(F.imag)
    a = [dz(c, hx, hy) for c in (x1, x2, height)]
    a[2] = vertical_form((_inner(x1), _inner(x2)), a)
    del x1, x2
    a0, a1, A = a

    conf = a0 * a0 + a1 * a1 + A * A
    rho = 2.0 * (np.abs(a0) ** 2 + np.abs(a1) ** 2 + np.abs(A) ** 2)
    yield "metric_density", [rho], 1
    yield "conformality", [conf], 1
    del conf, rho

    F_z = a0 + 1j * a1
    F_zbar = np.conj(a0) + 1j * np.conj(a1)
    yield (
        "minimality_horizontal",
        [dzzbar(F, hx, hy) - 0.5j * (np.conj(A) * F_z + A * F_zbar)],
        1,
    )
    del F_z, F_zbar

    if aux_height is not None:
        yield "aux_height_consistency", [A - 1j * dz(aux_height, hx, hy)], 1

    # Unit normal from the real coordinate-direction tangents f_x = 2 Re
    # a and f_y = -2 Im a; the frame is orthonormal, so the Euclidean
    # cross product computes the metric normal (NaN where it vanishes).
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
    yield "angle_function", [phi], 1

    # Derivatives of the frame coefficients (trim 2).
    a_z, a_zbar = zip(*(dz_dzbar(c, hx, hy) for c in a))
    a_in = [_inner(c) for c in a]
    del a

    yield "minimality_vertical", [a_zbar[2] + np.conj(a_zbar[2])], 2

    # nabla_{f_z} f_z̄: the coefficients of f_z̄ are conj(a) and their
    # z-derivatives conj(a_z̄), since f is real.
    cov = covariant_derivative(
        a_in, [np.conj(c) for c in a_in], [np.conj(c) for c in a_zbar]
    )
    del a_zbar
    squares = [(np.conj(c) * c).real for c in cov]
    cov_norm = np.sqrt(squares[0] + squares[1] + squares[2])
    del cov, squares
    yield "covariant_minimality", [cov_norm], 2
    del cov_norm

    # Q = i <nabla_{f_z} f_z, N> + A^2 (trim 2) and its z̄-derivative.
    accel = covariant_derivative(a_in, a_in, a_z)
    del a_z
    normal_in = [_inner(c) for c in normal]
    q = 1j * (
        accel[0] * normal_in[0] + accel[1] * normal_in[1] + accel[2] * normal_in[2]
    ) + a_in[2] ** 2
    del accel, normal_in, a_in
    yield "quadratic_differential", [q], 2
    yield "hopf_holomorphy", [dzbar(q, hx, hy)], 3
    del q

    # Harmonic-map residual of g = (N1 + i N2)/(1 + N3), the south-pole
    # stereographic projection of the normal, masked to NaN where
    # phi <= ANGLE_CUTOFF: there |g| -> 1 and the hyperbolic factor
    # blows up, so the check is only meaningful on the upward-tilted
    # region.
    g = stereographic_south(normal)
    g_z, g_zbar = dz_dzbar(g, hx, hy)
    g_in = _inner(g)
    tau = dzzbar(g, hx, hy) + 2.0 * np.conj(g_in) * g_z * g_zbar / (
        1.0 - np.abs(g_in) ** 2
    )
    del g_z, g_zbar, g_in
    tau = np.where(_inner(phi) > ANGLE_CUTOFF, tau, np.nan)
    yield "gauss_map_tension", [tau], 2
    del tau
    yield "gauss_map", [g], 1
    yield "normal", normal, 1


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_surface(
    surface,
    potential=None,
    margin=DEFAULT_TOLERANCES["margin"],
    threshold_scale=DEFAULT_TOLERANCES["threshold_scale"],
    keep_fields=False,
):
    """Run the full residual suite on a surface grid and judge it.

    surface must provide x, y, t, F, height and may provide aux_height,
    fhat, det_deviation, shape_deviation (SurfaceGrid does; externally
    loaded surfaces typically provide only the coordinates, in which case
    the auxiliary classes are skipped and reported as NaN).

    When the generating potential is supplied, the measured metric density
    is compared against rho0 and the measured quadratic differential
    against |Q0| (ratio statistics in the report).

    The report carries the verdict: report.thresholds by
    residual_thresholds at h the larger mean axis step (a[-1] - a[0]) /
    (n - 1), which on a generated grid is its GridSpec spacing bit for
    bit, and report.passed and report.failures by classify_report.

    Raises SchemaError, before the surface is read, for a tolerance that
    breaks its tolerances.* rule (config.check_tolerances).  Raises
    DomainError when F's shape is not (y.size, x.size) or height,
    aux_height or fhat does not match it; when an axis has fewer than
    max(2 * margin + 3, MIN_STENCIL_NODES) nodes (the margin-trimmed
    interior must keep at least 3 nodes per axis, and hopf_holomorphy's
    stencil reaches 3 nodes in from each side); when stencils.axis_steps
    refuses an axis at UNIFORM_SPACING_RTOL; or when F, height, aux_height
    or fhat holds a NaN or an infinity: the NaN-aware maxima would drop
    the stencils around such a node.  (The Gauss-map angle mask is made
    here, not read from the input.)  Finite data that overflow in the
    stencils raise no floating-point warning; the class reads NaN or inf
    instead.
    Raises DegenerateNode when the interior metric density drops below
    DEGENERATE_TOL — the data fails to be an immersion there and none of
    the residuals are meaningful.

    With keep_fields, report.fields holds each computed class's residual
    grid (covariant_minimality as the norm of the tension field) and the
    metric_density, angle_function, quadratic_differential, gauss_map and
    normal grids, all of grid shape with NaN where a stencil does not fit.

    This is the fold of the class kernel (_class_planes), which runs on
    blocks of whole grid rows of at most VERIFY_BLOCK_NODES nodes
    (stencils.row_blocks), kept fields or not: the temporaries are a
    block's.  A block reads 3 rows past its own on each side, the reach
    of Q_z̄, and counts its own rows only, so each value is one pass's
    (tests/test_residuals.py compares blocks with one block bit for bit).
    At grid scope stay the gate, the fmax fold of the maxima under
    _nanmax's rule (NaN where no block had a finite value), the node
    counts, and the grid planes of rho, phi and Q, on which the
    degeneracy test and the statistics run as in one pass.
    """
    tolerances = check_tolerances(margin=margin, threshold_scale=threshold_scale)
    margin = tolerances["margin"]
    x, y, F, height, aux_height, fhat, (hx, hy, h) = _checked_grid(surface, margin)
    ny, nx = F.shape
    peaks, grids = {}, {}
    evaluated = dict.fromkeys(RESIDUAL_KEYS, 0)
    tension_finite = 0
    # the grid planes the statistics read; with keep_fields, every plane
    read = {"metric_density", "angle_function"}
    if potential is not None:
        read.add("quadratic_differential")

    # each block reads the 3 rows past its own that hopf_holomorphy reaches
    for rows, block in row_blocks(ny, nx, VERIFY_BLOCK_NODES, MIN_STENCIL_NODES // 2):
        blocked = [c if c is None else c[block] for c in (F, height, aux_height, fhat)]

        def own(plane, trim, reach, first):
            """The nodes of a trim-`trim` plane whose first row is grid row
            `first` that lie in the block's own rows and `reach` or more
            nodes in from every side of the grid."""
            top = max(rows.start, reach)
            bottom = max(top, min(rows.stop, ny - reach))
            return plane[top - first : bottom - first, reach - trim : nx - reach - trim]

        for key, planes, trim in _class_planes(*blocked, hx, hy):
            # the planes on the block's own rows, whose first is grid row top
            planes = [own(p, trim, trim, block.start + trim) for p in planes]
            top = max(rows.start, trim)
            if key in RESIDUAL_CLASSES:
                magnitudes = [np.abs(p) for p in planes]
                reach = max(margin, trim)
                gated = [own(m, trim, reach, top) for m in magnitudes]
                gated_peak, ungated_peak = peaks.get(key, (_NO_PEAK, _NO_PEAK))
                peaks[key] = _peak(gated, gated_peak), _peak(magnitudes, ungated_peak)
                evaluated[key] += gated[0].size
                del magnitudes, gated
                if key == "gauss_map_tension":
                    finite = np.isfinite(own(planes[0], trim, reach, top))
                    tension_finite += int(np.count_nonzero(finite))
                    del finite
            if keep_fields or key in read:
                if key not in grids:
                    grids[key] = np.full(
                        F.shape + _ENTRY_AXES[len(planes)], np.nan, planes[0].dtype
                    )
                # one grid plane per yielded plane, by index: no loop name
                # may hold a plane while the kernel computes the next class
                views = np.moveaxis(grids[key].reshape(ny, nx, -1), -1, 0)
                for k, view in enumerate(views):
                    own(view, 0, trim, 0)[...] = planes[k]
            # the kernel computes the next class once these are dropped
            del planes

    # At grid scope: the bits of every statistic, and the one verdict.
    maxima = dict.fromkeys(RESIDUAL_KEYS, float("nan"))
    maxima_ungated = dict(maxima)
    for key, (gated, ungated) in peaks.items():
        maxima[key], maxima_ungated[key] = _nanmax(gated), _nanmax(ungated)
    rho_window = _inner(grids["metric_density"], margin)
    rho_interior = rho_window[np.isfinite(rho_window)]
    if rho_interior.size and float(np.min(rho_interior)) < DEGENERATE_TOL:
        raise DegenerateNode(
            f"metric density {np.min(rho_interior):.3e} below "
            f"{DEGENERATE_TOL:.1e}; surface degenerates on the grid interior"
        )

    phi_window = _inner(grids["angle_function"], margin)
    phi_finite = phi_window[np.isfinite(phi_window)]
    # interior nodes the angle cutoff masks; the tension had its inputs at
    # the rest, a NaN phi included
    skipped = phi_finite.size - int(np.count_nonzero(phi_window > ANGLE_CUTOFF))
    evaluated["gauss_map_tension"] = phi_window.size - skipped

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
        q_window = np.abs(_inner(grids["quadratic_differential"], inset))
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
        maxima=maxima,
        maxima_ungated=maxima_ungated,
        rho_min=statistic(rho_interior, np.min),
        rho_max=statistic(rho_interior, np.max),
        rho_mean=statistic(rho_interior, np.mean),
        phi_min_observed=statistic(phi_finite, np.min),
        phi_max_observed=statistic(phi_finite, np.max),
        tension_evaluated=tension_finite,
        tension_skipped=skipped,
        det_deviation=float(getattr(surface, "det_deviation", float("nan"))),
        shape_deviation=float(getattr(surface, "shape_deviation", float("nan"))),
        evaluated=evaluated,
        rho_ratio_mean=rho_ratio_mean,
        rho_ratio_spread=rho_ratio_spread,
        q_ratio_mean=q_ratio_mean,
        q_ratio_spread=q_ratio_spread,
    )
    if keep_fields:
        # the classes in reporting order, then the kernel's geometric planes
        report.fields = {key: grids[key] for key in RESIDUAL_KEYS if key in grids}
        report.fields.update({k: g for k, g in grids.items() if k not in report.fields})
    report.thresholds = residual_thresholds(h, tolerances["threshold_scale"])
    report.passed, report.failures = classify_report(report, report.thresholds)
    return report

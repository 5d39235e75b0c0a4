"""Tests for the differential-geometry residual suite.

The backbone is a set of hand-computed plane fixtures whose tangent data
consists of polynomials of degree at most one, so every finite-difference
stencil is exact and the predicted residuals hold to machine precision:

  vertical plane    f(x, y) = (x, 0, y):   conformal, minimal — every
                    gated residual is exactly zero
  horizontal plane  f(x, y) = (x, y, 0):   fails conformality with
                    <f_z, f_z> = -z̄²/16 and horizontal minimality with
                    residual -z/8, exactly
  stretched plane   f(x, y) = (x, 0, 2y):  conformality defect -3/4
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import residual_oracle as oracle
from nilsurf import residuals, stencils
from nilsurf.errors import DegenerateNode, DomainError
from nilsurf.outputs import read_surface_csv, write_surface_csv
from nilsurf.potentials import Potential
from nilsurf.surface import SurfaceGrid, generate_surface

#: The classes every surface has the inputs for: its coordinates.
COORDINATE_KEYS = (
    "conformality",
    "minimality_horizontal",
    "minimality_vertical",
    "covariant_minimality",
    "hopf_holomorphy",
)


def plane_surface(kind, n=17):
    # dyadic axes: spacing exactly 0.125, so central differences of the
    # (at most quadratic) fixture fields are free of rounding
    ax = np.arange(-(n // 2), n // 2 + 1) * 0.125
    xx, yy = np.meshgrid(ax, ax)
    if kind == "vertical":
        F, h, aux = xx + 0j, yy.copy(), -xx
    elif kind == "horizontal":
        F, h, aux = xx + 1j * yy, np.zeros_like(xx), None
    elif kind == "stretched":
        F, h, aux = xx + 0j, 2.0 * yy, None
    else:
        raise ValueError(kind)
    return SurfaceGrid(x=ax, y=ax.copy(), t=0.0, F=F, height=h, aux_height=aux)


def nodes(surface):
    """The parameter z = x + iy at every grid node."""
    return surface.x[None, :] + 1j * surface.y[:, None]


def steps(surface):
    """The grid steps (hx, hy), read off the axes."""
    return float(surface.x[1] - surface.x[0]), float(surface.y[1] - surface.y[0])


def interior(field):
    return field[1:-1, 1:-1]


def interior2(field):
    # residuals built by differentiating a differentiated field carry two
    # NaN rings, the reason the report's default margin is 2
    return field[2:-2, 2:-2]


def kept_fields(surface, **kwargs):
    return residuals.verify_surface(surface, keep_fields=True, **kwargs).fields


class TestComplexDerivatives:
    def test_exact_on_low_degree_polynomials(self):
        ax = np.arange(-5, 6) * 0.25  # dyadic spacing: differences are exact
        z = ax[None, :] + 1j * ax[:, None]
        h = ax[1] - ax[0]
        np.testing.assert_allclose(
            interior(oracle.grid_dz(z**2, h, h)), interior(2 * z), atol=1e-13
        )
        np.testing.assert_array_equal(
            interior(oracle.grid_dz(np.conj(z), h, h)), 0.0
        )
        np.testing.assert_array_equal(
            interior(oracle.grid_dzbar(np.conj(z), h, h)), 1.0
        )
        np.testing.assert_allclose(
            interior(oracle.grid_dz(np.abs(z) ** 2, h, h)),
            interior(np.conj(z)),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            interior(oracle.grid_dzzbar(np.abs(z) ** 2, h, h)), 1.0,
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            interior(oracle.grid_dzzbar(z**2, h, h)), 0.0
        )

    def test_boundary_ring_is_nan(self):
        z = np.zeros((6, 7), dtype=complex)
        d = oracle.grid_dz(z, 0.1, 0.1)
        assert np.all(np.isnan(d[0])) and np.all(np.isnan(d[-1]))
        assert np.all(np.isnan(d[:, 0])) and np.all(np.isnan(d[:, -1]))
        assert np.all(np.isfinite(d[1:-1, 1:-1]))

    def test_second_order_convergence_on_smooth_field(self):
        errors = []
        for n in (17, 33):
            ax = np.linspace(-1.0, 1.0, n)
            z = ax[None, :] + 1j * ax[:, None]
            h = ax[1] - ax[0]
            f = np.sin(z.real) * np.cos(z.imag)
            exact = 0.5 * (
                np.cos(z.real) * np.cos(z.imag)
                + 1j * np.sin(z.real) * np.sin(z.imag)
            )
            err = np.nanmax(np.abs(oracle.grid_dz(f, h, h) - exact))
            errors.append(err)
        assert errors[0] / errors[1] > 3.5  # order two

    def test_trailing_axes_are_carried(self):
        ax = np.linspace(-1.0, 1.0, 9)
        z = ax[None, :] + 1j * ax[:, None]
        stacked = np.stack([z, 3.0 * z], axis=-1)
        d = oracle.grid_dz(stacked, ax[1] - ax[0], ax[1] - ax[0])
        assert d.shape == stacked.shape
        np.testing.assert_allclose(interior(d[..., 0]), 1.0, atol=1e-13)
        np.testing.assert_allclose(interior(d[..., 1]), 3.0, atol=1e-13)


def signed(magnitudes):
    return st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([-1.0, 1.0]))


#: Steps whose mantissas need more than 24 bits: dividing by one and
#: multiplying by its reciprocal round apart.
STEPS = signed(st.floats(0.01, 100.0).filter(lambda h: math.frexp(h)[0] * 2**24 % 1))

#: Signed zeros, ordinary values and magnitudes near 1e300.
PLANE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0), signed(st.floats(1e299, 1e301))
)


@st.composite
def stencil_planes(draw):
    """A real or complex (ny, nx) plane, maybe with a trailing axis of 2.

    A real plane may also hold magnitudes near the float maximum, whose
    differences overflow.
    """
    shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    shape += draw(st.sampled_from([(), (2,)]))
    if not draw(st.booleans()):
        values = st.one_of(PLANE_VALUES, signed(st.floats(1e307, 1.7e308)))
        return draw(hnp.arrays(float, shape, elements=values))
    plane = draw(hnp.arrays(float, shape, elements=PLANE_VALUES)).astype(complex)
    plane.imag = draw(hnp.arrays(float, shape, elements=PLANE_VALUES))
    return plane


@settings(max_examples=200, deadline=None)
@given(plane=stencil_planes(), hx=STEPS, hy=STEPS)
@np.errstate(over="ignore", invalid="ignore")
def test_stencils_match_the_complex_formulas(plane, hx, hy):
    # The program differences a complex plane on its float view, and the
    # oracle keeps the complex arithmetic: equal values, ±0 counted equal,
    # NaN at the same nodes.  A real plane keeps the bits of NumPy's
    # complex values, signed zeros and the NaN of 0 * inf included.
    def check(new, old, name):
        assert new.shape == old.shape and new.dtype == old.dtype, name
        if np.iscomplexobj(plane):
            np.testing.assert_array_equal(new, old, err_msg=name)
        else:
            assert_same_bits(new.view(float), old.view(float), name)

    for name in ("dz", "dzbar", "dzzbar"):
        new = getattr(stencils, name)(plane, hx, hy)
        check(new, getattr(oracle, name)(plane, hx, hy), name)
    for new, old in zip(
        stencils.dz_dzbar(plane, hx, hy), oracle.dz_dzbar(plane, hx, hy)
    ):
        check(new, old, "dz_dzbar")
    if np.iscomplexobj(plane):
        # the fhat block's fold of d - 0.25j * c, for a complex c
        c = 1j * plane[1:-1, 1:-1] + plane[:-2, 2:]
        old = oracle.dzzbar(plane, hx, hy) - 0.25j * c
        new = stencils.less_quarter_i(stencils.dzzbar(plane, hx, hy), c)
        check(new, old, "less_quarter_i")


def test_an_overflowed_part_keeps_its_partner():
    # (1.5e308 - -1.5e308) overflows; dividing (inf - 1j) by a real step as
    # by 2 + 0j makes the imaginary part NaN (-1 - inf * 0), and the float
    # view keeps it
    plane = np.zeros((5, 5), dtype=complex)
    plane[2, 3], plane[2, 1] = complex(1.5e308, 1.0), complex(-1.5e308, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        old = oracle.dz_dzbar(plane, 0.5, 0.5)
        new = stencils.dz_dzbar(plane, 0.5, 0.5)
    for d in old:
        assert np.isinf(d[1, 1].real) and np.isnan(d[1, 1].imag)
    for d in new:
        assert d[1, 1] == complex(np.inf, -0.5)


class TestVerticalPlane:
    """All gated residuals vanish identically for f = (x, 0, y)."""

    def test_tangent_data(self):
        # verify_surface does not expose the tangent data: the oracle does
        surf = plane_surface("vertical")
        t = oracle.tangent_frame_coeffs(surf.F, surf.height, *steps(surf))
        np.testing.assert_array_equal(interior(t.F_z), 0.5)
        np.testing.assert_array_equal(interior(t.A), -0.5j)
        np.testing.assert_array_equal(
            interior(t.a),
            np.broadcast_to(np.array([0.5, 0.0, -0.5j]), (15, 15, 3)),
        )

    def test_an_overflowed_height_reads_inf(self):
        # One height of 1.5e308: the tension field's parts that complex
        # arithmetic turned into NaN are kept, so covariant_minimality
        # reads inf where the complex stencils left no finite value but 0.0
        surf = plane_surface("vertical")
        surf.height[8, 8] = 1.5e308
        report = residuals.verify_surface(surf)
        with np.errstate(over="ignore", invalid="ignore"):
            old = oracle.verify_surface(surf)
        assert old.maxima["covariant_minimality"] == 0.0
        assert report.maxima["covariant_minimality"] == np.inf
        assert "covariant_minimality" in [key for key, *_ in report.failures]

    def test_every_residual_class(self):
        fields = kept_fields(plane_surface("vertical"))
        np.testing.assert_array_equal(interior(fields["conformality"]), 0.0)
        np.testing.assert_array_equal(interior(fields["metric_density"]), 1.0)
        np.testing.assert_array_equal(
            interior(fields["minimality_horizontal"]), 0.0
        )
        np.testing.assert_array_equal(
            interior2(fields["minimality_vertical"]), 0.0
        )
        # the norm of the tension field nabla_{f_z} f_z̄
        np.testing.assert_array_equal(
            interior2(fields["covariant_minimality"]), 0.0
        )
        np.testing.assert_array_equal(
            interior(fields["normal"]),
            np.broadcast_to(np.array([0.0, -1.0, 0.0]), (15, 15, 3)),
        )
        np.testing.assert_array_equal(interior(fields["angle_function"]), 0.0)
        np.testing.assert_array_equal(
            interior2(fields["quadratic_differential"]), 0.0
        )
        np.testing.assert_array_equal(fields["hopf_holomorphy"][3:-3, 3:-3], 0.0)
        np.testing.assert_array_equal(
            interior(fields["aux_height_consistency"]), 0.0
        )

    def test_full_verification_report(self):
        report = residuals.verify_surface(plane_surface("vertical"))
        for key in (
            "conformality",
            "minimality_horizontal",
            "minimality_vertical",
            "covariant_minimality",
            "aux_height_consistency",
            "hopf_holomorphy",
        ):
            assert report.maxima[key] == 0.0, key
        # the plane is everywhere vertical: the angle mask removes every
        # node, and no auxiliary matrix field was provided
        assert np.isnan(report.maxima["gauss_map_tension"])
        assert np.isnan(report.maxima["fhat_laplace_identity"])
        assert report.tension_evaluated == 0
        assert report.rho_min == report.rho_max == 1.0
        assert report.phi_max_observed == 0.0


class TestHorizontalPlane:
    """f = (x, y, 0) has exact nonzero defects in this geometry."""

    def test_tangent_data(self):
        surf = plane_surface("horizontal")
        z = nodes(surf)
        t = oracle.tangent_frame_coeffs(surf.F, surf.height, *steps(surf))
        np.testing.assert_array_equal(interior(t.F_z), 1.0)
        np.testing.assert_array_equal(interior(t.F_zbar), 0.0)
        np.testing.assert_allclose(
            interior(t.A), interior(0.25j * np.conj(z)), atol=1e-15
        )

    def test_exact_defects(self):
        surf = plane_surface("horizontal")
        z = nodes(surf)
        fields = kept_fields(surf)
        np.testing.assert_allclose(
            interior(fields["conformality"]),
            interior(-np.conj(z) ** 2 / 16.0),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            interior(fields["metric_density"]),
            interior(1.0 + np.abs(z) ** 2 / 8.0),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            interior(fields["minimality_horizontal"]), interior(-z / 8.0),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            interior2(fields["minimality_vertical"]), 0.0, atol=1e-14
        )
        np.testing.assert_allclose(
            interior2(fields["covariant_minimality"]),
            interior2(np.abs(z) / 8.0),
            atol=1e-14,
        )
        # the report keeps the tension field's norm; its frame
        # coefficients come from the oracle
        hx, hy = steps(surf)
        t = oracle.tangent_frame_coeffs(surf.F, surf.height, hx, hy)
        cov = oracle.covariant_minimality_residual(t)
        expected = np.stack(
            [-z.real / 8.0, -z.imag / 8.0, np.zeros_like(z.real)], axis=-1
        )
        np.testing.assert_allclose(interior2(cov), interior2(expected), atol=1e-14)

    def test_normal_tilts_away_from_vertical(self):
        surf = plane_surface("horizontal")
        fields = kept_fields(surf)
        normal, phi = fields["normal"], fields["angle_function"]
        z = nodes(surf)
        expected_phi = 1.0 / np.sqrt(1.0 + np.abs(z) ** 2 / 4.0)
        np.testing.assert_allclose(interior(phi), interior(expected_phi), atol=1e-14)
        # at the origin the plane is horizontal and the normal vertical
        np.testing.assert_allclose(normal[8, 8], [0.0, 0.0, 1.0], atol=1e-15)

    def test_report_flags_the_defects(self):
        report = residuals.verify_surface(plane_surface("horizontal"))
        # largest |z| in the margin-trimmed interior of [-1, 1]^2
        corner = abs(0.75 + 0.75j)
        assert report.maxima["conformality"] == pytest.approx(
            corner**2 / 16.0, rel=1e-12
        )
        assert report.maxima["minimality_horizontal"] == pytest.approx(
            corner / 8.0, rel=1e-12
        )
        assert report.maxima["covariant_minimality"] == pytest.approx(
            corner / 8.0, rel=1e-12
        )
        assert report.maxima["minimality_vertical"] == pytest.approx(0.0, abs=1e-14)


class TestStretchedPlane:
    def test_conformality_defect_is_exactly_minus_three_quarters(self):
        surf = plane_surface("stretched")
        report = residuals.verify_surface(surf, keep_fields=True)
        np.testing.assert_array_equal(interior(report.fields["conformality"]), -0.75)
        np.testing.assert_array_equal(interior(report.fields["metric_density"]), 2.5)
        assert report.maxima["conformality"] == 0.75


class TestGaussMap:
    """The tension formula on a given normal field.

    verify_surface derives the normal from the coordinates, so these use
    the oracle, which verify_surface matches bit for bit.
    """

    def test_holomorphic_gauss_map_has_zero_tension(self):
        # build the normal field whose stereographic projection is the
        # holomorphic map g = z/3; the tension must vanish to rounding
        ax = np.linspace(-1.0, 1.0, 17)
        z = ax[None, :] + 1j * ax[:, None]
        g = z / 3.0
        denom = 1.0 + np.abs(g) ** 2
        normal = np.stack(
            [2.0 * g.real / denom, 2.0 * g.imag / denom, (1.0 - np.abs(g) ** 2) / denom],
            axis=-1,
        )
        phi = normal[..., 2]
        h = ax[1] - ax[0]
        g_back, tau = oracle.gauss_map_tension(normal, phi, h, h)
        np.testing.assert_allclose(g_back, g, atol=1e-14)
        assert np.nanmax(np.abs(tau)) < 1e-12

    def test_angle_mask_skips_steep_nodes(self):
        ax = np.linspace(-1.0, 1.0, 17)
        z = ax[None, :] + 1j * ax[:, None]
        g = z / 3.0
        denom = 1.0 + np.abs(g) ** 2
        normal = np.stack(
            [2.0 * g.real / denom, 2.0 * g.imag / denom, (1.0 - np.abs(g) ** 2) / denom],
            axis=-1,
        )
        phi = normal[..., 2]
        _, tau = oracle.gauss_map_tension(normal, phi, 0.125, 0.125, angle_cutoff=0.9)
        finite = np.isfinite(tau[1:-1, 1:-1])
        expected = phi[1:-1, 1:-1] > 0.9
        np.testing.assert_array_equal(finite, expected)
        assert finite.sum() > 0  # the cutoff bites but does not erase


class TestFhatIdentity:
    def test_linear_matrix_field_value(self):
        # fhat = x C1 + y C2 has exact first derivatives and zero
        # Laplacian, leaving only the commutator term; the vertical plane
        # carries it through verify_surface
        surf = plane_surface("vertical", n=9)
        xx, yy = np.meshgrid(surf.x, surf.y)
        c1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        c2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        surf.fhat = xx[..., None, None] * c1 + yy[..., None, None] * c2
        res = kept_fields(surf)["fhat_laplace_identity"]
        assert res.shape == (9, 9, 2, 2)
        assert np.all(np.isnan(res[0])) and np.all(np.isnan(res[:, -1]))
        fz = (c1 - 1j * c2) / 2.0
        fzb = (c1 + 1j * c2) / 2.0
        expected = -0.25j * (fz @ fzb - fzb @ fz)
        np.testing.assert_allclose(
            res[1:-1, 1:-1], np.broadcast_to(expected, (7, 7, 2, 2)), atol=1e-13
        )
        np.testing.assert_allclose(
            expected, np.diag([0.125, -0.125]), atol=1e-16
        )


class TestDegenerateDetection:
    def test_constant_map_raises(self):
        n = 9
        ax = np.linspace(-0.4, 0.4, n)
        surf = SurfaceGrid(
            x=ax,
            y=ax.copy(),
            t=0.0,
            F=np.full((n, n), 0.7 + 0.1j),
            height=np.ones((n, n)),
        )
        with pytest.raises(DegenerateNode):
            residuals.verify_surface(surf)

    def test_zero_norm_normal_is_nan_not_crash(self):
        t = oracle.TangentData(
            F_z=np.zeros((5, 5), dtype=complex),
            F_zbar=np.zeros((5, 5), dtype=complex),
            A=np.zeros((5, 5), dtype=complex),
            a=np.zeros((5, 5, 3), dtype=complex),
            b=np.zeros((5, 5, 3), dtype=complex),
            a_z=np.zeros((5, 5, 3), dtype=complex),
            a_zbar=np.zeros((5, 5, 3), dtype=complex),
        )
        normal, phi = oracle.unit_normal(t)
        assert np.all(np.isnan(normal))
        assert np.all(np.isnan(phi))

    def test_parallel_tangents_give_a_nan_normal_in_kept_fields(self):
        # rows 0-2 share one height, so f_y vanishes on row 1 and the
        # cross product with f_x is zero there; row 1 lies outside the
        # default margin, so the density gate does not see it
        surf = plane_surface("vertical", n=11)
        surf.height[:3] = surf.height[2]
        fields = kept_fields(surf)
        assert np.all(np.isnan(fields["normal"][1]))
        assert np.all(np.isnan(fields["angle_function"][1]))
        assert np.all(np.isfinite(interior(fields["normal"])[1:]))


class TestGeneratedSurfaceVerification:
    def test_report_on_generated_surface(self):
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.4, 0.4, 17)
        surf = generate_surface(pot, ax, ax, 0.0)
        report = residuals.verify_surface(surf, potential=pot)
        for key in residuals.RESIDUAL_KEYS:
            assert np.isfinite(report.maxima[key]), key
            assert report.maxima[key] < 0.05, key
        # the quadratic differential converges to |Q0| pointwise; the
        # metric density tracks the potential scale without equaling it,
        # so only its order of magnitude is checked
        assert report.q_ratio_mean == pytest.approx(1.0, abs=1e-2)
        assert report.q_ratio_spread < 1e-3
        assert 0.8 < report.rho_ratio_mean < 1.3
        # the normal is vertical at the base point of this surface
        assert report.phi_max_observed == pytest.approx(1.0, abs=1e-6)
        assert report.tension_evaluated > 0

    def test_margin_widens_the_gate(self):
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.4, 0.4, 17)
        surf = generate_surface(pot, ax, ax, 0.0)
        r1 = residuals.verify_surface(surf, margin=1)
        r3 = residuals.verify_surface(surf, margin=3)
        for key in residuals.RESIDUAL_KEYS:
            if np.isfinite(r1.maxima[key]) and np.isfinite(r3.maxima[key]):
                assert r3.maxima[key] <= r1.maxima[key] * (1.0 + 1e-12)

    def test_keep_fields(self):
        surf = plane_surface("vertical")
        report = residuals.verify_surface(surf, keep_fields=True)
        assert report.fields["conformality"].shape == surf.F.shape
        assert "metric_density" in report.fields
        assert "normal" in report.fields
        # no auxiliary matrix field on this fixture, so no residual grid
        assert "fhat_laplace_identity" not in report.fields
        assert not residuals.verify_surface(surf).fields

    def test_kept_fields_have_grid_shape_and_nan_rings(self):
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.4, 0.4, 13)
        surf = generate_surface(pot, ax, ax[:11], 0.3)
        fields = residuals.verify_surface(surf, keep_fields=True).fields
        assert list(fields) == list(residuals.RESIDUAL_KEYS) + [
            "metric_density",
            "angle_function",
            "quadratic_differential",
            "gauss_map",
            "normal",
        ]
        # the ring width is how far in each stencil reaches
        rings = {
            "conformality": 1,
            "minimality_horizontal": 1,
            "minimality_vertical": 2,
            "covariant_minimality": 2,
            "aux_height_consistency": 1,
            "hopf_holomorphy": 3,
            "gauss_map_tension": 2,
            "fhat_laplace_identity": 1,
            "metric_density": 1,
            "angle_function": 1,
            "quadratic_differential": 2,
            "gauss_map": 1,
            "normal": 1,
        }
        for key, width in rings.items():
            field = fields[key]
            assert field.shape[:2] == (11, 13), key
            inside = np.zeros((11, 13), dtype=bool)
            inside[width:-width, width:-width] = True
            finite = np.isfinite(field).reshape(11, 13, -1).all(axis=-1)
            np.testing.assert_array_equal(finite, inside, err_msg=key)
        assert fields["fhat_laplace_identity"].shape == (11, 13, 2, 2)
        assert fields["normal"].shape == (11, 13, 3)


def vertical_plane(nx, ny):
    """f = (x, 0, y) on nx x ny nodes of spacing 0.125."""
    x = (np.arange(nx) - nx // 2) * 0.125
    y = (np.arange(ny) - ny // 2) * 0.125
    xx, yy = np.meshgrid(x, y)
    return SurfaceGrid(x=x, y=y, t=0.0, F=xx + 0j, height=yy, aux_height=-xx)


class TestEvaluatedCounts:
    """report.evaluated: the margin-gated nodes where a class had its inputs."""

    #: nodes a class's stencil loses on every side (its plane's trim)
    TRIMS = {
        "conformality": 1,
        "minimality_horizontal": 1,
        "minimality_vertical": 2,
        "covariant_minimality": 2,
        "aux_height_consistency": 1,
        "hopf_holomorphy": 3,
        "fhat_laplace_identity": 1,
    }

    @pytest.mark.parametrize("margin", [1, 2, 3])
    def test_gated_plane_of_each_class(self, margin):
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.4, 0.4, 17)
        report = residuals.verify_surface(
            generate_surface(pot, ax, ax, 0.0), margin=margin
        )
        for key, trim in self.TRIMS.items():
            assert report.evaluated[key] == (17 - 2 * max(margin, trim)) ** 2, key
        # the tension: the interior nodes the angle cutoff keeps
        interior = (17 - 2 * margin) ** 2
        assert report.evaluated["gauss_map_tension"] == (
            interior - report.tension_skipped
        )
        assert report.evaluated["gauss_map_tension"] > 0

    def test_missing_inputs_count_zero(self):
        # coordinates alone: no auxiliary data; the vertical plane's angle
        # cutoff masks every interior node
        plane = plane_surface("vertical")
        plane.aux_height = None
        report = residuals.verify_surface(plane)
        assert set(report.evaluated) == set(residuals.RESIDUAL_KEYS)
        for key in COORDINATE_KEYS:
            assert report.evaluated[key] == (17 - 2 * max(2, self.TRIMS[key])) ** 2
        for key in (
            "aux_height_consistency",
            "gauss_map_tension",
            "fhat_laplace_identity",
        ):
            assert report.evaluated[key] == 0, key
            assert math.isnan(report.maxima[key]), key


class TestNanAwareMax:
    def test_inf_without_a_finite_value_reads_nan(self):
        # overflowed stencils with no finite value among them give the
        # class no value (NaN, which the classifier's NaN rule fails),
        # not an infinite one
        def nanmax(magnitudes):
            return residuals._nanmax(residuals._peak(magnitudes))

        overflowed = [np.array([[np.inf, np.nan]]), np.array([[np.nan]])]
        assert math.isnan(nanmax(overflowed))
        assert math.isnan(nanmax([np.full((2, 2), np.nan)]))
        # beside one finite value the inf is the maximum
        assert nanmax(overflowed + [np.array([[3.0]])]) == math.inf
        assert nanmax([np.array([[np.nan, 2.0]])]) == 2.0
        # folded plane by plane, as verify_surface folds its blocks: the
        # finite value of an earlier fold is remembered
        folded = residuals._peak([np.array([[3.0]])])
        assert residuals._nanmax(residuals._peak(overflowed, folded)) == math.inf


class TestGridGate:
    """verify_surface refuses grids its stencils cannot difference."""

    @pytest.mark.parametrize("margin", [1, 2, 3, 4])
    def test_smallest_grid_for_each_margin(self, margin):
        need = max(2 * margin + 3, residuals.MIN_STENCIL_NODES)
        report = residuals.verify_surface(vertical_plane(need, need + 2), margin=margin)
        # every coordinate class, hopf_holomorphy's 3-node reach included,
        # has a node inside the margin
        for key in COORDINATE_KEYS:
            assert report.maxima[key] == 0.0, key
        for nx, ny in ((need - 1, need), (need, need - 1)):
            with pytest.raises(DomainError, match=f"need at least {need} nodes"):
                residuals.verify_surface(vertical_plane(nx, ny), margin=margin)

    def test_hopf_reach_sets_the_minimum_at_margin_1(self):
        # 2 * 1 + 3 = 5 nodes used to pass the gate and leave
        # hopf_holomorphy without a node
        assert residuals.MIN_STENCIL_NODES == 7
        for n in (5, 6):
            with pytest.raises(DomainError, match="need at least 7 nodes"):
                residuals.verify_surface(vertical_plane(n, n), margin=1)

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_non_uniform_axis(self, name):
        surf = vertical_plane(9, 9)
        axis = getattr(surf, name).copy()
        axis[4] += 1e-3 * 0.125
        # the plane stays exact on the moved node
        xx, yy = np.meshgrid(
            axis if name == "x" else surf.x, axis if name == "y" else surf.y
        )
        surf = SurfaceGrid(
            x=xx[0], y=yy[:, 0], t=0.0, F=xx + 0j, height=yy, aux_height=-xx
        )
        with pytest.raises(DomainError, match=f"{name} axis is not uniformly"):
            residuals.verify_surface(surf)

    @pytest.mark.parametrize(
        "axis",
        [np.zeros(9), np.r_[np.arange(8.0), np.nan], np.r_[np.arange(8.0), np.inf],
         np.r_[-1.5e308, np.zeros(7), 1.5e308]],
        ids=["repeated", "nan", "inf", "overflowing-step"],
    )
    def test_axis_without_one_finite_step(self, axis):
        surf = vertical_plane(9, 9)
        surf.x = axis
        with pytest.raises(DomainError, match="x axis is not uniformly"):
            residuals.verify_surface(surf)

    @pytest.mark.parametrize("which", ["first", "mean"])
    def test_a_step_past_the_square_rule(self, which):
        # the greatest step stencils.square_in_range admits, with the
        # stencils' first step one ulp past it, or the thresholds' mean
        # step 1e-9 of it past it
        edge = 1.3407807929942596e154
        axis = edge * np.arange(9.0)
        if which == "first":
            axis[1] = math.nextafter(edge, math.inf)
        else:
            axis[2:] *= 1.0 + 1e-9
        surf = vertical_plane(9, 9)
        surf.x = axis
        with pytest.raises(DomainError, match="x axis step .* is out of range"):
            residuals.verify_surface(surf)

    def test_swapped_axes(self):
        surf = vertical_plane(9, 11)
        surf.x, surf.y = surf.y, surf.x
        with pytest.raises(DomainError, match=r"F has shape \(11, 9\)"):
            residuals.verify_surface(surf)

    @pytest.mark.parametrize(
        "name, shape",
        [("height", (9, 10)), ("aux_height", (10, 9)), ("fhat", (9, 9))],
    )
    def test_companion_grid_of_another_shape(self, name, shape):
        surf = vertical_plane(9, 9)
        setattr(surf, name, np.zeros(shape))
        with pytest.raises(DomainError, match=f"{name} has shape"):
            residuals.verify_surface(surf)

    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            (
                "height",
                (3, 5),
                np.inf,
                "surface coordinates are not finite at 1 node(s), the first "
                "at (x, y) = (0.125, -0.125)",
            ),
            (
                "aux_height",
                (6, 2),
                np.nan,
                "aux_height is not finite at 1 node(s), the first at "
                "(x, y) = (-0.25, 0.25)",
            ),
            (
                # two entries at one node count once, then a second node
                "fhat",
                ([3, 3, 6], [5, 5, 2], [0, 1, 1], [1, 0, 1]),
                [np.nan, np.inf, complex(0.0, -np.inf)],
                "fhat is not finite at 2 node(s), the first at "
                "(x, y) = (0.125, -0.125)",
            ),
        ],
    )
    def test_the_first_non_finite_node_is_named(self, name, index, value, message):
        # a whole-array check finds the entry; the per-node count and the
        # first node come from the reduction it falls back to
        surf = vertical_plane(9, 9)
        surf.fhat = np.zeros((9, 9, 2, 2), dtype=complex)
        residuals.verify_surface(surf)
        getattr(surf, name)[index] = value
        with pytest.raises(DomainError) as refused:
            residuals.verify_surface(surf)
        assert str(refused.value) == message

    def test_decreasing_uniform_axis_is_accepted(self):
        # a uniform axis may run either way; the stencils take its signed step
        surf = vertical_plane(9, 9)
        surf.x = surf.x[::-1].copy()
        surf.F = np.broadcast_to(surf.x + 0j, (9, 9)).copy()
        surf.aux_height = -surf.F.real
        report = residuals.verify_surface(surf)
        for key in COORDINATE_KEYS + ("aux_height_consistency",):
            assert report.maxima[key] == 0.0, key


class TestReportSerialization:
    def test_to_dict_is_json_ready_and_nan_free(self):
        report = residuals.verify_surface(plane_surface("vertical"))
        d = report.to_dict()
        text = json.dumps(d)  # must not raise, and must be valid JSON
        assert "NaN" not in text
        assert d["maxima"]["gauss_map_tension"] is None
        assert d["maxima"]["conformality"] == 0.0
        assert d["grid"] == {"nx": 17, "ny": 17, "hx": 0.125, "hy": 0.125}
        assert d["tension_nodes"]["evaluated"] == 0
        assert set(d["maxima"]) == set(residuals.RESIDUAL_KEYS)


# --- the plane suite against the NaN-ring oracle, bit for bit -------------

STATISTICS = (
    "rho_min",
    "rho_max",
    "rho_mean",
    "phi_min_observed",
    "phi_max_observed",
    "tension_evaluated",
    "tension_skipped",
    "rho_ratio_mean",
    "rho_ratio_spread",
    "q_ratio_mean",
    "q_ratio_spread",
)


def same_bits(a, b):
    """Equal floats with equal signs, or both NaN, or both None."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same_bits(new, old, name):
    assert new.shape == old.shape and new.dtype == old.dtype, name
    nan = np.isnan(old)
    np.testing.assert_array_equal(np.isnan(new), nan, err_msg=name)
    # compare the bits of every non-NaN value, so -0.0 differs from 0.0
    np.testing.assert_array_equal(
        new[~nan].view(np.uint64), old[~nan].view(np.uint64), err_msg=name
    )


def assert_matches_oracle(surface, **kwargs):
    new = residuals.verify_surface(surface, keep_fields=True, **kwargs)
    # the oracle takes the cutoff the suite reads, patched or not
    old = oracle.verify_surface(
        surface,
        keep_fields=True,
        angle_cutoff=residuals.ANGLE_CUTOFF,
        **kwargs,
    )
    for key in residuals.RESIDUAL_KEYS:
        assert same_bits(new.maxima[key], old.maxima[key]), key
        assert same_bits(new.maxima_ungated[key], old.maxima_ungated[key]), key
    for name in STATISTICS:
        assert same_bits(getattr(new, name), getattr(old, name)), name
    assert list(new.fields) == list(old.fields)
    for name, field in old.fields.items():
        assert_same_bits(new.fields[name], field, name)
    assert new.to_dict() == old.to_dict()


@st.composite
def smooth_surfaces(draw):
    """A smooth immersion on a drawn uniform grid, with drawn companions.

    x1 = x + c0 x^2 + c1 x y keeps d(x1)/dx >= 0.4 on the drawn domain,
    so the metric density stays far above the degeneracy gate.
    """
    margin = draw(st.integers(1, 3))
    least = max(2 * margin + 3, residuals.MIN_STENCIL_NODES)
    nx = draw(st.integers(least, 40))
    ny = draw(st.integers(least, 40))
    unit = st.floats(-1.0, 1.0)
    c = [0.2 * draw(unit) for _ in range(2)] + [draw(unit) for _ in range(10)]
    x = draw(st.floats(-0.5, 0.0)) + draw(st.floats(0.005, 0.025)) * np.arange(nx)
    y = draw(st.floats(-0.5, 0.0)) + draw(st.floats(0.005, 0.025)) * np.arange(ny)
    xx, yy = np.meshgrid(x, y)
    F = (xx + c[0] * xx**2 + c[1] * xx * yy) + 1j * (
        (1.0 + 0.5 * c[2]) * yy + c[3] * yy**2 + c[4] * np.sin(xx)
    )
    height = c[5] * xx * yy + c[6] * np.sin(2.0 * yy) + c[7] * xx + c[8] * yy
    surface = SurfaceGrid(x=x, y=y, t=0.0, F=F, height=height)
    if draw(st.booleans()):
        surface.aux_height = c[9] * np.sin(xx - yy) + c[10] * xx * yy
    if draw(st.booleans()):
        waves = (np.cos(xx + yy), np.sin(2.0 * xx), xx * yy, np.cos(yy) + 1j * xx)
        surface.fhat = np.stack(
            [c[11] * w + k for k, w in enumerate(waves)], axis=-1
        ).reshape(ny, nx, 2, 2)
    return surface, margin


@settings(max_examples=60, deadline=None)
@given(
    drawn=smooth_surfaces(),
    cutoff=st.one_of(st.floats(-1.0, 1.0), st.just(0.05)),
    quantile=st.one_of(st.none(), st.floats(0.0, 1.0)),
    rho0=st.one_of(st.none(), st.floats(0.5, 2.0)),
)
def test_plane_suite_matches_the_oracle_bit_for_bit(drawn, cutoff, quantile, rho0):
    surface, margin = drawn
    if quantile is not None:
        # a cutoff inside the surface's own angle range masks some nodes
        tangent = oracle.tangent_frame_coeffs(
            surface.F, surface.height, *steps(surface)
        )
        cutoff = float(np.nanquantile(oracle.unit_normal(tangent)[1], quantile))
    potential = None if rho0 is None else Potential.constant(rho0, (0.25, 0.1j))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residuals, "ANGLE_CUTOFF", cutoff)
        assert_matches_oracle(surface, potential=potential, margin=margin)


@settings(max_examples=40, deadline=None)
@given(drawn=smooth_surfaces(), rho0=st.one_of(st.none(), st.floats(0.5, 2.0)))
def test_blocked_suite_matches_the_oracle_bit_for_bit(drawn, rho0):
    # blocks of the fewest rows allowed: up to 4 on the drawn grids, each
    # reading its halo rows from its neighbours
    surface, margin = drawn
    potential = None if rho0 is None else Potential.constant(rho0, (0.25, 0.1j))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residuals, "VERIFY_BLOCK_NODES", 1)
        assert_matches_oracle(surface, potential=potential, margin=margin)


@pytest.mark.parametrize(
    "potential, n",
    [(Potential.constant(1.0, (0.25,)), 49), (Potential.liouville(), 65)],
)
@pytest.mark.parametrize("margin", [1, 2])
def test_generated_surfaces_match_the_oracle_bit_for_bit(potential, n, margin):
    ax = np.linspace(-0.3, 0.3, n)
    surface = generate_surface(potential, ax, ax, 0.4)
    assert_matches_oracle(surface, potential=potential, margin=margin)


@pytest.mark.parametrize("kind", ["vertical", "horizontal", "stretched"])
def test_plane_fixtures_match_the_oracle_bit_for_bit(kind):
    assert_matches_oracle(plane_surface(kind), margin=1)



def test_a_report_without_a_verdict_reads_as_failed():
    # the oracle builds its report without thresholds or a classification:
    # it must not read as a pass the suite never gave
    plane = plane_surface("vertical")
    judged = residuals.verify_surface(plane)
    assert judged.passed and judged.failures == [] and judged.thresholds
    unjudged = oracle.verify_surface(plane)
    assert not unjudged.passed and unjudged.thresholds == {}


# --- row blocks against one block over the whole grid, bit for bit -------


def verify_blocks(ny, nx):
    """(own rows, rows read) of each block of verify_surface: 3 rows of
    halo, the reach of hopf_holomorphy."""
    halo = (residuals.MIN_STENCIL_NODES - 1) // 2
    return stencils.row_blocks(ny, nx, residuals.VERIFY_BLOCK_NODES, halo)


def verify_in_blocks(surface, count, **kwargs):
    """verify_surface with the surface's rows split into count blocks."""
    ny, nx = surface.F.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residuals, "VERIFY_BLOCK_NODES", nx * -(-ny // count))
        assert len(verify_blocks(ny, nx)) == count
        return residuals.verify_surface(surface, **kwargs)


def assert_same_reports(new, old):
    assert new.to_dict() == old.to_dict()
    for key in residuals.RESIDUAL_KEYS:
        assert same_bits(new.maxima[key], old.maxima[key]), key
        assert same_bits(new.maxima_ungated[key], old.maxima_ungated[key]), key
    for name in STATISTICS:
        assert same_bits(getattr(new, name), getattr(old, name)), name
    assert new.evaluated == old.evaluated
    assert new.thresholds == old.thresholds and new.passed == old.passed
    assert [key for key, *_ in new.failures] == [key for key, *_ in old.failures]
    for (_, value, threshold), (_, old_value, old_threshold) in zip(
        new.failures, old.failures
    ):
        assert same_bits(value, old_value) and same_bits(threshold, old_threshold)
    assert list(new.fields) == list(old.fields)
    for name, field in old.fields.items():
        assert_same_bits(new.fields[name], field, name)


@pytest.fixture(scope="module")
def csv_surface_257(tmp_path_factory):
    """The 257^2 member rho0 = 1, Q0 = 1/4 at t = pi/4, read back from its
    CSV: coordinates only."""
    ax = np.linspace(-0.5, 0.5, 257)
    path = tmp_path_factory.mktemp("csv257") / "surface.csv"
    write_surface_csv(
        generate_surface(Potential.constant(1.0, (0.25,)), ax, ax, math.pi / 4), path
    )
    return read_surface_csv(path)


def test_the_257_grid_is_three_blocks(csv_surface_257):
    # the rows each block owns, and the rows it reads: 3 more on each side
    blocks = [
        (own.start, own.stop, read.start, read.stop)
        for own, read in verify_blocks(257, 257)
    ]
    assert blocks == [(0, 85, 0, 88), (85, 171, 82, 174), (171, 257, 168, 260)]
    assert_same_reports(
        residuals.verify_surface(csv_surface_257), verify_in_blocks(csv_surface_257, 1)
    )


def verify_peak(surface, **kwargs):
    """The most bytes verify_surface(surface, **kwargs) holds at once."""
    tracemalloc.start()
    try:
        residuals.verify_surface(surface, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_257_verify_holds_a_block_of_temporaries(csv_surface_257):
    # one block over the whole grid peaks at about 23 MB, three blocks at
    # 8.55e6 bytes, and 8.9e6 or more when the fold holds a class's planes
    # while the kernel computes the next
    assert verify_peak(csv_surface_257) < 8.85e6


@pytest.fixture(scope="module")
def generated_grids():
    """Generated members on the lopsided 97 x 61 grid and on 129^2, each
    with its potential."""
    pot = Potential.constant(1.0, (0.25,))
    grids = {}
    for nx, ny in ((97, 61), (129, 129)):
        x = np.linspace(-0.303, 0.657, nx)
        y = np.linspace(-0.105, 0.495, ny)
        grids[nx, ny] = generate_surface(pot, x, y, 0.7), pot
    return grids


def test_a_129_verify_drops_each_class_before_the_next(generated_grids):
    # one block, with fhat and the potential's Q: 5.69e6 bytes, and 5.93e6
    # or more when the fold holds a class's planes while the kernel
    # computes the next
    surface, pot = generated_grids[129, 129]
    assert verify_peak(surface, potential=pot) < 5.9e6


@pytest.mark.parametrize("shape", [(97, 61), (129, 129)])
@pytest.mark.parametrize("count", [2, 3, 4, 5])
@pytest.mark.parametrize("margin", [1, 2, 4])
def test_blocks_keep_the_bits_of_one_block(generated_grids, shape, count, margin):
    # 61 and 129 rows split unevenly: the blocks differ by a row.  Kept
    # fields run the same blocks, so they are compared too
    surface, pot = generated_grids[shape]
    kwargs = dict(potential=pot, margin=margin, keep_fields=True)
    assert_same_reports(
        verify_in_blocks(surface, count, **kwargs),
        verify_in_blocks(surface, 1, **kwargs),
    )


@pytest.mark.parametrize("row", range(4, 12))
def test_an_overflowed_height_in_a_halo_row(row):
    # two blocks own rows 0-7 and 8-16 and read rows 5-10 as halo.  The
    # inf maxima stay, and so do the 0.0 readings of the classes whose
    # gated nodes overflowed into NaN
    surf = plane_surface("vertical")
    surf.height[row, 8] = 1.5e308
    blocked = verify_in_blocks(surf, 2)
    assert_same_reports(blocked, verify_in_blocks(surf, 1))
    for key in ("conformality", "minimality_vertical", "covariant_minimality"):
        assert blocked.maxima[key] == math.inf, key
    for key in ("minimality_horizontal", "hopf_holomorphy"):
        assert blocked.maxima[key] == 0.0, key


def test_a_degenerate_block_raises_the_whole_grid_text(generated_grids):
    # the coordinates scaled by 1e-5: the metric density is about 1e-10
    surface, _ = generated_grids[97, 61]
    small = SurfaceGrid(
        x=surface.x,
        y=surface.y,
        t=0.0,
        F=1e-5 * surface.F,
        height=1e-5 * surface.height,
    )
    texts = []
    for count in (1, 3):
        with pytest.raises(DegenerateNode) as raised:
            verify_in_blocks(small, count)
        texts.append(str(raised.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("metric density ")


# --- strided subgrids against their contiguous copies, bit for bit -------


def subgrid(surface, copy):
    """The surface on every other node of each axis: views of its arrays,
    or contiguous copies of them."""
    take = np.ascontiguousarray if copy else np.asarray
    companions = {}
    for name in ("F", "height", "aux_height", "fhat"):
        grid = getattr(surface, name)
        companions[name] = None if grid is None else take(grid[::2, ::2])
    return SurfaceGrid(
        x=take(surface.x[::2]),
        y=take(surface.y[::2]),
        t=surface.t,
        det_deviation=surface.det_deviation,
        shape_deviation=surface.shape_deviation,
        **companions,
    )


@pytest.mark.parametrize("member", ["generated 129", "liouville 65", "generated 513"])
def test_strided_subgrids_verify_as_their_copies(generated_grids, member):
    if member == "generated 129":
        surface, pot = generated_grids[129, 129]
    elif member == "liouville 65":
        pot = Potential.liouville()
        ax = np.linspace(-0.3, 0.3, 65)
        surface = generate_surface(pot, ax, ax, 0.4)
    else:
        # its 257^2 subgrid is three blocks of the suite
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.5, 0.5, 513)
        surface = generate_surface(pot, ax, ax, math.pi / 4)
        assert len(verify_blocks(257, 257)) == 3
    views, copies = subgrid(surface, copy=False), subgrid(surface, copy=True)
    assert not views.F.flags.c_contiguous and copies.F.flags.c_contiguous
    assert_same_reports(
        residuals.verify_surface(views, potential=pot, keep_fields=True),
        residuals.verify_surface(copies, potential=pot, keep_fields=True),
    )

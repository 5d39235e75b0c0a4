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

import numpy as np
import pytest

from nilsurf import residuals
from nilsurf.errors import DegenerateNode
from nilsurf.potentials import Potential
from nilsurf.surface import SurfaceGrid, generate_surface


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


def interior(field):
    return field[1:-1, 1:-1]


def interior2(field):
    # residuals built by differentiating a differentiated field carry two
    # NaN rings, the reason the report's default margin is 2
    return field[2:-2, 2:-2]


class TestComplexDerivatives:
    def test_exact_on_low_degree_polynomials(self):
        ax = np.arange(-5, 6) * 0.25  # dyadic spacing: differences are exact
        z = ax[None, :] + 1j * ax[:, None]
        h = ax[1] - ax[0]
        np.testing.assert_allclose(
            interior(residuals.grid_dz(z**2, h, h)), interior(2 * z), atol=1e-13
        )
        np.testing.assert_array_equal(
            interior(residuals.grid_dz(np.conj(z), h, h)), 0.0
        )
        np.testing.assert_array_equal(
            interior(residuals.grid_dzbar(np.conj(z), h, h)), 1.0
        )
        np.testing.assert_allclose(
            interior(residuals.grid_dz(np.abs(z) ** 2, h, h)),
            interior(np.conj(z)),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            interior(residuals.grid_dzzbar(np.abs(z) ** 2, h, h)), 1.0,
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            interior(residuals.grid_dzzbar(z**2, h, h)), 0.0
        )

    def test_boundary_ring_is_nan(self):
        z = np.zeros((6, 7), dtype=complex)
        d = residuals.grid_dz(z, 0.1, 0.1)
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
            err = np.nanmax(np.abs(residuals.grid_dz(f, h, h) - exact))
            errors.append(err)
        assert errors[0] / errors[1] > 3.5  # order two

    def test_trailing_axes_are_carried(self):
        ax = np.linspace(-1.0, 1.0, 9)
        z = ax[None, :] + 1j * ax[:, None]
        stacked = np.stack([z, 3.0 * z], axis=-1)
        d = residuals.grid_dz(stacked, ax[1] - ax[0], ax[1] - ax[0])
        assert d.shape == stacked.shape
        np.testing.assert_allclose(interior(d[..., 0]), 1.0, atol=1e-13)
        np.testing.assert_allclose(interior(d[..., 1]), 3.0, atol=1e-13)


class TestVerticalPlane:
    """All gated residuals vanish identically for f = (x, 0, y)."""

    def test_tangent_data(self):
        surf = plane_surface("vertical")
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, *surf.spacing)
        np.testing.assert_array_equal(interior(t.F_z), 0.5)
        np.testing.assert_array_equal(interior(t.A), -0.5j)
        np.testing.assert_array_equal(
            interior(t.a),
            np.broadcast_to(np.array([0.5, 0.0, -0.5j]), (15, 15, 3)),
        )

    def test_every_residual_class(self):
        surf = plane_surface("vertical")
        hx, hy = surf.spacing
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, hx, hy)
        conf, rho = residuals.conformality_residual(t)
        np.testing.assert_array_equal(interior(conf), 0.0)
        np.testing.assert_array_equal(interior(rho), 1.0)
        r1, r2 = residuals.minimality_residuals(t, surf.F, hx, hy)
        np.testing.assert_array_equal(interior(r1), 0.0)
        np.testing.assert_array_equal(interior2(r2), 0.0)
        cov = residuals.covariant_minimality_residual(t)
        np.testing.assert_array_equal(interior2(cov), 0.0)
        normal, phi = residuals.unit_normal(t)
        np.testing.assert_array_equal(
            interior(normal),
            np.broadcast_to(np.array([0.0, -1.0, 0.0]), (15, 15, 3)),
        )
        np.testing.assert_array_equal(interior(phi), 0.0)
        q, q_zbar = residuals.quadratic_differential(t, normal, hx, hy)
        np.testing.assert_array_equal(interior2(q), 0.0)
        np.testing.assert_array_equal(q_zbar[3:-3, 3:-3], 0.0)
        aux = residuals.aux_height_consistency(t, surf.aux_height, hx, hy)
        np.testing.assert_array_equal(interior(aux), 0.0)

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
        z = surf.z_nodes
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, *surf.spacing)
        np.testing.assert_array_equal(interior(t.F_z), 1.0)
        np.testing.assert_array_equal(interior(t.F_zbar), 0.0)
        np.testing.assert_allclose(
            interior(t.A), interior(0.25j * np.conj(z)), atol=1e-15
        )

    def test_exact_defects(self):
        surf = plane_surface("horizontal")
        hx, hy = surf.spacing
        z = surf.z_nodes
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, hx, hy)
        conf, rho = residuals.conformality_residual(t)
        np.testing.assert_allclose(
            interior(conf), interior(-np.conj(z) ** 2 / 16.0), atol=1e-15
        )
        np.testing.assert_allclose(
            interior(rho), interior(1.0 + np.abs(z) ** 2 / 8.0), atol=1e-15
        )
        r1, r2 = residuals.minimality_residuals(t, surf.F, hx, hy)
        np.testing.assert_allclose(interior(r1), interior(-z / 8.0), atol=1e-14)
        np.testing.assert_allclose(interior2(r2), 0.0, atol=1e-14)
        cov = residuals.covariant_minimality_residual(t)
        expected = np.stack(
            [-z.real / 8.0, -z.imag / 8.0, np.zeros_like(z.real)], axis=-1
        )
        np.testing.assert_allclose(interior2(cov), interior2(expected), atol=1e-14)

    def test_normal_tilts_away_from_vertical(self):
        surf = plane_surface("horizontal")
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, *surf.spacing)
        normal, phi = residuals.unit_normal(t)
        z = surf.z_nodes
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
        t = residuals.tangent_frame_coeffs(surf.F, surf.height, *surf.spacing)
        conf, rho = residuals.conformality_residual(t)
        np.testing.assert_array_equal(interior(conf), -0.75)
        np.testing.assert_array_equal(interior(rho), 2.5)
        report = residuals.verify_surface(surf)
        assert report.maxima["conformality"] == 0.75


class TestGaussMap:
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
        g_back, tau = residuals.gauss_map_tension(normal, phi, h, h)
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
        _, tau = residuals.gauss_map_tension(normal, phi, 0.125, 0.125, angle_cutoff=0.9)
        finite = np.isfinite(tau[1:-1, 1:-1])
        expected = phi[1:-1, 1:-1] > 0.9
        np.testing.assert_array_equal(finite, expected)
        assert finite.sum() > 0  # the cutoff bites but does not erase


class TestFhatIdentity:
    def test_linear_matrix_field_value(self):
        # fhat = x C1 + y C2 has exact first derivatives and zero
        # Laplacian, leaving only the commutator term
        ax = np.linspace(-1.0, 1.0, 9)
        xx, yy = np.meshgrid(ax, ax)
        c1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        c2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        fhat = xx[..., None, None] * c1 + yy[..., None, None] * c2
        h = ax[1] - ax[0]
        res = residuals.fhat_laplace_identity(fhat, h, h)
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
        t = residuals.TangentData(
            F_z=np.zeros((5, 5), dtype=complex),
            F_zbar=np.zeros((5, 5), dtype=complex),
            A=np.zeros((5, 5), dtype=complex),
            a=np.zeros((5, 5, 3), dtype=complex),
            b=np.zeros((5, 5, 3), dtype=complex),
            a_z=np.zeros((5, 5, 3), dtype=complex),
            a_zbar=np.zeros((5, 5, 3), dtype=complex),
        )
        normal, phi = residuals.unit_normal(t)
        assert np.all(np.isnan(normal))
        assert np.all(np.isnan(phi))


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

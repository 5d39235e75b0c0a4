"""Tests for the immersion-formula assembly of surfaces from frames."""

import numpy as np
import pytest

from nilsurf import frame, mat2, surface
from nilsurf.errors import ShapeViolation
from nilsurf.potentials import Potential

UNIT_POTENTIAL = Potential.constant(1.0, (0.25,))
AXES = np.linspace(-0.4, 0.4, 9)


class TestMatrixAlgebra:
    def test_fhat_at_identity_frame(self):
        fhat = surface.fhat_from_frame(np.eye(2, dtype=complex), np.zeros((2, 2)))
        np.testing.assert_array_equal(fhat, 2.0 * mat2.DIAG_IMAG)

    def test_fhat_hand_value(self):
        psi = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
        psi_t = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_array_equal(
            surface.fhat_from_frame(psi, psi_t),
            np.array([[2j, -4.0], [0.0, -2j]]),
        )

    def test_dfhat_dt_matches_finite_difference_of_fhat(self):
        # independent check of the product-rule expansion: move the frame
        # along a synthetic t-line psi(t) = psi0 @ expm(t K)
        from scipy.linalg import expm

        rng = np.random.default_rng(41)
        psi0 = np.eye(2) + 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

        def triple(t):
            e = expm(t * k)
            psi = psi0 @ e
            return psi, psi @ k, psi @ k @ k

        d = 1e-5
        psi, psi_t, psi_tt = triple(0.2)
        got = surface.dfhat_dt_from_frame(psi, psi_t, psi_tt)
        hi = surface.fhat_from_frame(*triple(0.2 + d)[:2])
        lo = surface.fhat_from_frame(*triple(0.2 - d)[:2])
        np.testing.assert_allclose(got, (hi - lo) / (2 * d), atol=1e-8)

    def test_entry_wise_assembly_matches_dense_products(self):
        # reference: the defining formulas with generic @ on (n, 2, 2) stacks
        rng = np.random.default_rng(7)
        psi, psi_t, psi_tt = (
            np.eye(2)
            + 0.3 * (rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)))
            for _ in range(3)
        )
        s = mat2.DIAG_IMAG
        pinv = np.linalg.inv(psi)
        a = psi_t @ pinv
        fhat = -2.0 * a + 2.0 * (psi @ s @ pinv)
        dfhat = (
            -2.0 * (psi_tt @ pinv)
            + 2.0 * (a @ a)
            + 2.0 * (psi_t @ s @ pinv)
            - 2.0 * (psi @ s @ pinv @ a)
        )
        np.testing.assert_allclose(
            surface.fhat_from_frame(psi, psi_t), fhat, rtol=0.0, atol=1e-13
        )
        np.testing.assert_allclose(
            surface.dfhat_dt_from_frame(psi, psi_t, psi_tt), dfhat,
            rtol=0.0, atol=1e-13,
        )

    def test_ft_extracts_vertical_from_dfhat_and_horizontal_from_fhat(self):
        s, w, ds, dw = 3.0, 1.0 + 2.0j, 4.0, 9.0
        fhat = np.array([[1j * s, w], [np.conj(w), -1j * s]])
        dfhat = np.array([[1j * ds, dw], [np.conj(dw), -1j * ds]])
        ft = surface.ft_from_fhat(fhat, dfhat)
        np.testing.assert_allclose(
            ft, np.array([[ds / 2, w], [np.conj(w), ds / 2]]), atol=1e-15
        )
        np.testing.assert_allclose(
            mat2.matrix_to_point(ft), [w.real, w.imag, ds / 2], atol=1e-15
        )


class TestGeneratedSurface:
    def test_base_point_is_pinned(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3)
        assert surf.F[4, 4] == 0.0
        assert surf.height[4, 4] == 0.0
        assert surf.aux_height[4, 4] == 2.0
        assert surf.t == 0.3

    def test_shape_and_determinant_deviations_are_tiny(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.0)
        assert surf.shape_deviation < 1e-7
        assert surf.det_deviation < 1e-8

    def test_grid_properties(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.0)
        hx, hy = surf.spacing
        assert hx == pytest.approx(0.1)
        assert hy == pytest.approx(0.1)
        np.testing.assert_array_equal(
            surf.z_nodes, AXES[None, :] + 1j * AXES[:, None]
        )
        pts = surf.coords()
        assert pts.shape == (9, 9, 3)
        np.testing.assert_array_equal(pts[..., 0] + 1j * pts[..., 1], surf.F)
        np.testing.assert_array_equal(pts[..., 2], surf.height)

    def test_height_is_half_the_aux_height_rate(self):
        # the vertical coordinate must equal half the t-derivative of the
        # companion height; check against centered differences in t
        d = 1e-3
        mid = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3)
        hi = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3 + d)
        lo = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3 - d)
        fd = (hi.aux_height - lo.aux_height) / (2 * d)
        assert np.max(np.abs(mid.height - 0.5 * fd)) < 1e-6

    def test_family_is_pi_periodic(self):
        a, b = surface.sweep_family(UNIT_POTENTIAL, AXES, AXES, (0.4, 0.4 + np.pi))
        assert np.max(np.abs(a.F - b.F)) < 1e-12
        assert np.max(np.abs(a.height - b.height)) < 1e-12

    def test_sweep_family_orders_and_tags_members(self):
        t_values = (0.0, 0.25, 0.5)
        members = surface.sweep_family(UNIT_POTENTIAL, AXES, AXES, t_values)
        assert [m.t for m in members] == list(t_values)
        # members differ: the family rotates the surface through distinct
        # immersions even though the metric data is shared
        assert np.max(np.abs(members[0].F - members[2].F)) > 1e-3

    def test_family_call_equals_scalar_calls(self):
        t_values = [0.1, 0.9, 2.0]
        members = surface.generate_surface(
            UNIT_POTENTIAL, AXES, AXES, t_values, substeps=2
        )
        for t, member in zip(t_values, members):
            single = surface.generate_surface(
                UNIT_POTENTIAL, AXES, AXES, t, substeps=2
            )
            assert (member.t, member.substeps) == (t, 2)
            for name in ("F", "height", "aux_height", "fhat"):
                np.testing.assert_allclose(
                    getattr(member, name), getattr(single, name),
                    rtol=0.0, atol=1e-14,
                )

    def test_substeps_are_recorded(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.0, substeps=2)
        assert surf.substeps == 2


class TestShapeGate:
    def test_corrupted_frame_is_rejected(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.psi[2, 3] += np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field)

    def test_corrupted_derivative_is_rejected(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.psi_t[2, 3] += np.array([[0.05, 0.0], [0.0, 0.0]])
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field)

    def test_loose_tolerance_admits_the_same_frame(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.psi_t[2, 3] += np.array([[1e-8, 0.0], [0.0, 0.0]])
        surface.surface_from_frame(field, shape_tol=1e-6)  # within tolerance
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field, shape_tol=1e-9)

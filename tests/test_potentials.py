"""Tests for potential data: rho0 sources and the Q0 polynomial."""

import numpy as np
import pytest

from nilsurf.errors import DomainError, PotentialDataError
from nilsurf.potentials import MAX_Q0_DEGREE, Potential


class TestConstantSource:
    def test_values_and_derivative(self):
        pot = Potential.constant(4.0)
        z = np.array([0.0, 0.3 + 0.2j, -1.0j])
        np.testing.assert_array_equal(pot.rho0(z), 4.0)
        np.testing.assert_array_equal(pot.dlog_rho0_dz(z), 0.0)
        assert pot.source.analytic

    def test_default_q0_is_quarter(self):
        pot = Potential.constant(1.0)
        np.testing.assert_array_equal(pot.q0(0.7 - 0.1j), 0.25)

    def test_unit_density_quarter_q0_is_admissible_exactly(self):
        # first residual = 0 - 1/8 + 2*(1/16)/1 = 0 without rounding
        pot = Potential.constant(1.0, (0.25,))
        residual = pot.integrability_residual(np.array([0.1 + 0.2j]))
        assert residual.shape == (1,)
        np.testing.assert_array_equal(residual, 0.0)

    def test_unit_density_zero_q0_is_inadmissible(self):
        pot = Potential.constant(1.0, (0.0,))
        np.testing.assert_array_equal(pot.integrability_residual(0.0j), -0.125)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(PotentialDataError):
            Potential.constant(0.0)
        with pytest.raises(PotentialDataError):
            Potential.constant(-2.0)


class TestLiouvilleSource:
    def test_closed_form_values(self):
        pot = Potential.liouville()
        assert pot.rho0(0.0j) == 16.0
        # |z|^2 = 1/2 gives 16 / (1/2)^2 = 64
        np.testing.assert_allclose(
            pot.rho0((1.0 + 1.0j) / 2.0), 64.0, rtol=1e-15
        )
        np.testing.assert_allclose(
            pot.dlog_rho0_dz(0.5 + 0.0j), 4.0 / 3.0, rtol=1e-15
        )
        np.testing.assert_array_equal(pot.q0(0.3j), 0.0)

    def test_satisfies_the_liouville_equation(self):
        pot = Potential.liouville()
        rng = np.random.default_rng(21)
        z = 0.9 * rng.uniform(-0.7, 0.7, 50) * np.exp(
            2j * np.pi * rng.uniform(size=50)
        )
        residual = pot.integrability_residual(z)
        # rho0 grows toward the boundary, so scale the comparison by it
        assert np.max(np.abs(residual) / pot.rho0(z)) < 1e-13

    def test_derivative_matches_finite_differences(self):
        pot = Potential.liouville()
        z = 0.31 - 0.47j
        h = 1e-6
        fd_x = (np.log(pot.rho0(z + h)) - np.log(pot.rho0(z - h))) / (2 * h)
        fd_y = (np.log(pot.rho0(z + 1j * h)) - np.log(pot.rho0(z - 1j * h))) / (
            2 * h
        )
        np.testing.assert_allclose(
            pot.dlog_rho0_dz(z), 0.5 * (fd_x - 1j * fd_y), rtol=1e-8
        )

    def test_outside_unit_disk_rejected(self):
        pot = Potential.liouville()
        with pytest.raises(DomainError):
            pot.rho0(1.0 + 0.0j)
        with pytest.raises(DomainError):
            pot.dlog_rho0_dz(np.array([0.0j, 1.2j]))

    def test_nonzero_q0_rejected(self):
        src = Potential.liouville().source
        with pytest.raises(PotentialDataError):
            Potential(src, (0.25,))


class TestQ0Polynomial:
    def test_coefficients_are_ascending(self):
        pot = Potential.constant(1.0, (1.0, 2.0j, 3.0))
        np.testing.assert_allclose(pot.q0(2.0 + 0.0j), 13.0 + 4.0j)
        np.testing.assert_allclose(pot.q0(0.0j), 1.0)

    def test_degree_cap(self):
        Potential.constant(1.0, np.ones(MAX_Q0_DEGREE + 1))  # degree 8: fine
        with pytest.raises(PotentialDataError):
            Potential.constant(1.0, np.ones(MAX_Q0_DEGREE + 2))

    def test_empty_coefficients_mean_zero(self):
        pot = Potential.constant(1.0, ())
        np.testing.assert_array_equal(pot.q0(0.5 + 0.5j), 0.0)

    def test_nested_coefficients_rejected(self):
        with pytest.raises(PotentialDataError):
            Potential.constant(1.0, [[0.25, 0.0], [0.0, 0.0]])

    def test_antiholomorphic_residual_is_structurally_zero(self):
        # (Q0)_z̄ = 0, the admissibility condition the gate does not
        # evaluate: a polynomial in z is holomorphic, so central
        # differences see only their own truncation and rounding
        pot = Potential.constant(2.0, (0.1, 0.2j, 0.0, 1.0))
        z = np.linspace(-1, 1, 7) + 0.3j
        h = 1e-5
        q_x = (pot.q0(z + h) - pot.q0(z - h)) / (2 * h)
        q_y = (pot.q0(z + 1j * h) - pot.q0(z - 1j * h)) / (2 * h)
        assert np.max(np.abs((q_x + 1j * q_y) / 2.0)) < 1e-9


class _FakeSolution:
    def __init__(self, x, y, u, residual_field=None):
        self.x = x
        self.y = y
        self.u = u
        if residual_field is not None:
            self.residual_field = residual_field


def saddle_solution(n=21, residual=None):
    x = np.linspace(-1.0, 1.0, n)
    y = np.linspace(-1.0, 1.0, n)
    xx, yy = np.meshgrid(x, y)
    return _FakeSolution(x, y, xx**2 - yy**2, residual)


def smooth_u(z):
    return np.sin(2.0 * z.real + 0.5) * np.cos(1.5 * z.imag) + 0.3 * z.imag


def smooth_dlog(z):
    x, y = z.real, z.imag
    u_x = 2.0 * np.cos(2.0 * x + 0.5) * np.cos(1.5 * y)
    u_y = -1.5 * np.sin(2.0 * x + 0.5) * np.sin(1.5 * y) + 0.3
    return 0.5 * (u_x - 1j * u_y)


def smooth_solution(n):
    x = np.linspace(-1.0, 1.0, n)
    return _FakeSolution(x, x.copy(), smooth_u(x[None, :] + 1j * x[:, None]))


class TestSolvedSource:
    def test_values_at_nodes_are_exact(self):
        sol = saddle_solution()
        pot = Potential.solved(sol, (0.25,))
        assert not pot.source.analytic
        xx, yy = np.meshgrid(sol.x, sol.y)
        z = xx + 1j * yy
        np.testing.assert_allclose(
            pot.rho0(z), np.exp(xx**2 - yy**2), rtol=1e-14
        )

    def test_gradient_of_quadratic_is_exact_everywhere(self):
        # u = x^2 - y^2 has linear derivatives, which fourth-order
        # differencing and 4-point interpolation both reproduce exactly.
        pot = Potential.solved(saddle_solution(), (0.25,))
        rng = np.random.default_rng(22)
        z = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        np.testing.assert_allclose(pot.dlog_rho0_dz(z), z, atol=1e-12)

    def test_interpolation_error_is_fourth_order(self):
        # midpoints along each axis (4 nodes read, shifted inward at the
        # edges) and points off the nodes along both axes (16 read)
        rng = np.random.default_rng(23)
        general = rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50)
        errors = {"midpoints": [], "general": [], "derivative": []}
        for n in (41, 81):
            sol = smooth_solution(n)
            pot = Potential.solved(sol, (0.25,))
            h = sol.x[1] - sol.x[0]
            mid = (sol.x[:-1] + h / 2)[None, :] + 1j * sol.y[:, None]
            mid = np.concatenate([mid.ravel(), (1j * mid.T + 0.0).ravel()])
            for key, z in (("midpoints", mid), ("general", general)):
                exact = np.exp(smooth_u(z))
                errors[key].append(np.max(np.abs(pot.rho0(z) - exact) / exact))
            errors["derivative"].append(
                np.max(np.abs(pot.dlog_rho0_dz(general) - smooth_dlog(general)))
            )
        for key, (coarse, fine) in errors.items():
            assert fine < 1e-6, (key, fine)
            # measured: 3.98 at the midpoints, 4.45 at the general points
            # and 3.76 for the derivative
            assert 3.5 <= np.log2(coarse / fine) <= 4.7, (key, coarse, fine)

    def test_stencils_are_mirror_symmetric_bit_for_bit(self):
        # criterion 6 compares a family member with the base surface under
        # a half turn: a mirrored field must give the mirrored values and
        # the negated mirrored derivative, at the nodes and at every
        # midpoint the march samples, edges included
        rng = np.random.default_rng(24)
        n = 21
        axis = np.arange(-(n // 2), n // 2 + 1) / 16.0
        u = rng.standard_normal((n, n))
        mids = axis[:-1] + 1.0 / 32.0
        points = [
            axis[None, :] + 1j * axis[:, None],
            mids[None, :] + 1j * axis[:, None],
            axis[None, :] + 1j * mids[:, None],
        ]
        base = Potential.solved(_FakeSolution(axis, axis, u), (0.25,))
        for flip, image in (
            (lambda f: f[:, ::-1], lambda z: -np.conj(z)),
            (lambda f: f[::-1], np.conj),
            (lambda f: f[::-1, ::-1], np.negative),
        ):
            mirrored = Potential.solved(_FakeSolution(axis, axis, flip(u)), (0.25,))
            for z in points:
                np.testing.assert_array_equal(
                    mirrored.rho0(image(z)), base.rho0(z)
                )
                # (log rho0)_z = (u_x - i u_y)/2 maps as z does
                np.testing.assert_array_equal(
                    mirrored.dlog_rho0_dz(image(z)), image(base.dlog_rho0_dz(z))
                )

    def test_outside_rectangle_rejected(self):
        pot = Potential.solved(saddle_solution(), (0.25,))
        with pytest.raises(DomainError):
            pot.rho0(1.5 + 0.0j)
        with pytest.raises(DomainError):
            pot.dlog_rho0_dz(-1.0 - 1.2j)

    def test_integrability_reports_stored_residual(self):
        n = 21
        residual = np.full((n, n), 3e-9)
        residual[10, 7] = 5e-7
        pot = Potential.solved(saddle_solution(n, residual), (0.25,))
        x = pot.source.x
        y = pot.source.y
        residual = pot.integrability_residual(x[7] + 1j * y[10])
        np.testing.assert_array_equal(residual, 5e-7)
        # nearest-node lookup: a point just off the node reports the same
        residual = pot.integrability_residual(
            (x[7] + 0.3 * (x[8] - x[7])) + 1j * y[10]
        )
        np.testing.assert_array_equal(residual, 5e-7)

    def test_missing_residual_field_reads_as_zero(self):
        pot = Potential.solved(saddle_solution(), (0.25,))
        np.testing.assert_array_equal(pot.integrability_residual(0.1 + 0.1j), 0.0)

    def test_shape_mismatch_rejected(self):
        x = np.linspace(-1, 1, 5)
        y = np.linspace(-1, 1, 7)
        with pytest.raises(PotentialDataError):
            Potential.solved(_FakeSolution(x, y, np.zeros((5, 7))), (0.25,))

    def test_non_finite_field_rejected(self):
        sol = saddle_solution()
        sol.u[3, 3] = np.nan
        with pytest.raises(PotentialDataError):
            Potential.solved(sol, (0.25,))


def test_describe_is_json_ready():
    import json

    for pot in (
        Potential.constant(2.0, (0.25, 0.1j)),
        Potential.liouville(),
        Potential.solved(saddle_solution(), (0.0, 0.25)),
    ):
        summary = pot.describe()
        json.dumps(summary)  # must not raise
        assert "rho0" in summary
        assert summary["q0_coefficients"][0] == [
            pytest.approx(pot.q0_coeffs[0].real),
            pytest.approx(pot.q0_coeffs[0].imag),
        ]

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
        # u = x^2 - y^2 has linear derivatives, which second-order
        # differencing and bilinear interpolation both reproduce exactly.
        pot = Potential.solved(saddle_solution(), (0.25,))
        rng = np.random.default_rng(22)
        z = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        np.testing.assert_allclose(pot.dlog_rho0_dz(z), z, atol=1e-12)

    def test_interpolation_error_is_second_order(self):
        sol = saddle_solution(n=21)
        pot = Potential.solved(sol, (0.25,))
        h = sol.x[1] - sol.x[0]
        z = (sol.x[3] + 0.5 * h) + 1j * sol.y[5]  # cell midpoint
        exact = np.exp(z.real**2 - z.imag**2)
        assert abs(pot.rho0(z) - exact) < h**2 * exact

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

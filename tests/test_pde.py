"""Tests for the elliptic solve of the integrability equation."""

import numpy as np
import pytest

from nilsurf import pde
from nilsurf.errors import DomainError, LinearSolveFailure, MaxIterExceeded


def square_axes(n, half_width=0.5):
    ax = np.linspace(-half_width, half_width, n)
    return ax, ax.copy()


def grid_z(x, y):
    xx, yy = np.meshgrid(x, y)
    return xx + 1j * yy


class TestLiouvilleExact:
    def test_values(self):
        assert pde.liouville_exact(0.0j) == 16.0
        np.testing.assert_allclose(
            pde.liouville_exact((1.0 + 1.0j) / 2.0), 64.0, rtol=1e-15
        )

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            pde.liouville_exact(1.0 + 0.0j)
        with pytest.raises(DomainError):
            pde.liouville_exact(np.array([0.2j, -1.01]))


class TestResidualField:
    def test_flat_admissible_data_gives_exact_zero(self):
        u = np.zeros((9, 9))
        q2 = np.full((9, 9), 1.0 / 16.0)
        np.testing.assert_array_equal(pde.pde_residual(u, q2, 0.1), 0.0)

    def test_flat_inadmissible_data(self):
        u = np.zeros((9, 9))
        q2 = np.zeros((9, 9))
        r = pde.pde_residual(u, q2, 0.1)
        np.testing.assert_array_equal(r[1:-1, 1:-1], -0.125)
        np.testing.assert_array_equal(r[0], 0.0)  # Dirichlet rows
        np.testing.assert_array_equal(r[:, -1], 0.0)

    def test_laplacian_term_is_exact_on_quadratics(self):
        x, y = square_axes(11)
        xx, yy = np.meshgrid(x, y)
        u = xx**2 + yy**2  # Laplacian = 4, so the first term is exactly 1
        h = x[1] - x[0]
        r = pde.pde_residual(u, np.zeros_like(u), h)
        ui = u[1:-1, 1:-1]
        np.testing.assert_allclose(
            r[1:-1, 1:-1], 1.0 - np.exp(ui) / 8.0, rtol=1e-12, atol=1e-12
        )


class TestHarmonicExtension:
    def test_reproduces_discrete_harmonic_field(self):
        # x^2 - y^2 is in the kernel of the 5-point Laplacian, so the
        # extension of its boundary trace must reproduce it everywhere.
        x, y = square_axes(17)
        xx, yy = np.meshgrid(x, y)
        target = xx**2 - yy**2
        ext = pde.harmonic_extension(target, x[1] - x[0])
        np.testing.assert_allclose(ext, target, atol=1e-10)

    def test_constant_extends_to_constant(self):
        bc = np.full((9, 9), 3.5)
        bc[1:-1, 1:-1] = -99.0  # interior values must be ignored
        ext = pde.harmonic_extension(bc, 0.125)
        np.testing.assert_allclose(ext, 3.5, atol=1e-11)


class TestNewtonSolve:
    def test_exact_solution_converges_immediately(self):
        # bc = 0 with |Q0| = 1/4 makes u = 0 the exact solution, and the
        # harmonic extension already produces it.
        x, y = square_axes(17)
        q0 = np.full((17, 17), 0.25 + 0.0j)
        result = pde.newton_solve(q0, 0.0, x, y)
        assert result.newton_iterations == 0
        assert result.final_residual == 0.0
        np.testing.assert_array_equal(result.u, 0.0)
        assert len(result.residual_history) == 1
        assert result.cg_iterations == [0]  # zero right-hand side

    def test_zero_q0_solution_is_negative_inside(self):
        # With Q0 = 0 the equation forces u strictly subharmonic, so by
        # the maximum principle u < 0 inside when the boundary is 0.
        x, y = square_axes(33)
        result = pde.newton_solve(np.zeros((33, 33)), 0.0, x, y, tol=1e-10)
        assert result.final_residual <= 1e-10
        assert np.all(result.u[1:-1, 1:-1] < 0.0)
        np.testing.assert_array_equal(result.u[0], 0.0)
        # the line search accepts only strict decrease
        hist = np.array(result.residual_history)
        assert np.all(np.diff(hist) < 0)
        assert len(result.cg_iterations) == result.newton_iterations + 1
        assert result.spacing == pytest.approx(x[1] - x[0])

    def test_liouville_regression_second_order(self):
        # Solve with Q0 = 0 and exact boundary data; the discrete solution
        # must approach the closed form at second order in the spacing.
        errors = []
        for n in (17, 33):
            x, y = square_axes(n)
            z = grid_z(x, y)
            bc = np.log(pde.liouville_exact(z))
            result = pde.newton_solve(np.zeros((n, n)), bc, x, y, tol=1e-11)
            errors.append(np.max(np.abs(result.u - bc)))
        assert errors[1] < 5e-4
        order = np.log2(errors[0] / errors[1])
        assert order > 1.8

    @pytest.mark.parametrize("n", [33, 65, 129])
    def test_cg_count_does_not_grow_with_resolution(self, n):
        # CG preconditioned by the DST-I inverse of -Laplacian/4 + mean(c)
        # needs a bounded number of iterations per linear solve at any h
        x, y = square_axes(n, half_width=0.6)
        z = grid_z(x, y)
        liouville = (np.zeros((n, n)), np.log(pde.liouville_exact(z)))
        for q0, bc in (liouville, (z / 4.0, 0.0)):
            result = pde.newton_solve(q0, bc, x, y)
            assert max(result.cg_iterations) <= 12

    def test_harmonic_fill_is_one_preconditioned_iteration(self):
        # with shift 0 the preconditioner is the exact inverse of
        # -Laplacian/4, also on a rectangular grid of square cells
        x = np.linspace(-0.5, 0.5, 41)
        y = -0.3 + (x[1] - x[0]) * np.arange(25)
        xx, yy = np.meshgrid(x, y)
        bc = 0.3 * xx - 0.2 * yy**2
        result = pde.newton_solve((xx + 1j * yy) / 4.0, bc, x, y)
        assert result.cg_iterations[0] <= 1
        assert result.final_residual <= 1e-10

    def test_cg_iteration_cap_raises(self, monkeypatch):
        # one CG iteration solves the harmonic fill exactly, but the
        # convergence test only runs at the top of the next iteration
        monkeypatch.setattr(pde, "CG_MAXITER", 1)
        x, y = square_axes(17, half_width=0.6)
        bc = np.log(pde.liouville_exact(grid_z(x, y)))
        with pytest.raises(LinearSolveFailure, match="harmonic extension"):
            pde.newton_solve(np.zeros((17, 17)), bc, x, y)

    def test_iteration_cap_raises(self):
        x, y = square_axes(17)
        with pytest.raises(MaxIterExceeded) as info:
            pde.newton_solve(np.zeros((17, 17)), 0.0, x, y, max_iter=1)
        assert info.value.iterations == 1
        assert info.value.residual > info.value.tol

    def test_grid_validation(self):
        x = np.linspace(-0.5, 0.5, 9)
        y_coarse = np.linspace(-0.5, 0.5, 5)  # rectangular cells
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((5, 9)), 0.0, x, y_coarse)
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((2, 2)), 0.0, x[:2], x[:2])
        nonuniform = np.array([0.0, 0.1, 0.3])
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((3, 3)), 0.0, nonuniform, nonuniform)

    def test_shape_validation(self):
        x, y = square_axes(9)
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((5, 5)), 0.0, x, y)
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((9, 9)), np.zeros((5, 5)), x, y)


class TestLinearSolve:
    def test_pcg_matches_a_dense_solve_on_a_rectangular_interior(self):
        # (-Laplacian/4 + diag c) assembled entry by entry: interior node
        # (j, i) of a rows x cols interior is unknown j * cols + i
        rows, cols, h = 6, 9, 0.1
        rng = np.random.default_rng(7)
        c = 0.5 + rng.random((rows, cols)) * np.arange(1, cols + 1)
        rhs = rng.standard_normal((rows, cols))
        index = np.arange(rows * cols).reshape(rows, cols)
        dense = np.diag(1.0 / h**2 + c.ravel())
        for j in range(rows):
            for i in range(cols):
                for dj, di in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= j + dj < rows and 0 <= i + di < cols:
                        dense[index[j, i], index[j + dj, i + di]] = -0.25 / h**2
        expected = np.linalg.solve(dense, rhs.ravel()).reshape(rows, cols)
        sol, iterations = pde._cg_solve(c, rhs, h, "test")
        assert sol.shape == (rows, cols)
        assert 0 < iterations <= 12
        np.testing.assert_allclose(sol, expected, rtol=0, atol=1e-11)

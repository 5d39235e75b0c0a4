"""Tests for the elliptic solve of the integrability equation."""

import numpy as np
import pytest

from nilsurf import pde
from nilsurf.errors import (
    DomainError,
    LinearSolveFailure,
    MaxIterExceeded,
    PotentialDataError,
)
from nilsurf.potentials import liouville_exact


def square_axes(n, half_width=0.5):
    ax = np.linspace(-half_width, half_width, n)
    return ax, ax.copy()


def grid_z(x, y):
    xx, yy = np.meshgrid(x, y)
    return xx + 1j * yy


def basis_of(interior, h):
    return pde._sine_basis(interior.shape, h)


def harmonic_fill(bc, h):
    return pde._harmonic_fill(bc, basis_of(bc[1:-1, 1:-1], h))[0]


class TestLiouvilleExact:
    def test_values(self):
        assert liouville_exact(0.0j) == 16.0
        np.testing.assert_allclose(
            liouville_exact((1.0 + 1.0j) / 2.0), 64.0, rtol=1e-15
        )

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            liouville_exact(1.0 + 0.0j)
        with pytest.raises(DomainError):
            liouville_exact(np.array([0.2j, -1.01]))


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
        ext = harmonic_fill(target, x[1] - x[0])
        np.testing.assert_allclose(ext, target, atol=1e-10)

    def test_constant_extends_to_constant(self):
        bc = np.full((9, 9), 3.5)
        bc[1:-1, 1:-1] = -99.0  # interior values must be ignored
        ext = harmonic_fill(bc, 0.125)
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
        result = pde.newton_solve(np.zeros((33, 33)), 0.0, x, y)
        assert result.final_residual <= 1e-10
        assert np.all(result.u[1:-1, 1:-1] < 0.0)
        np.testing.assert_array_equal(result.u[0], 0.0)
        # the line search accepts only strict decrease
        hist = np.array(result.residual_history)
        assert np.all(np.diff(hist) < 0)
        assert len(result.cg_iterations) == result.newton_iterations + 1
        assert result.x[1] - result.x[0] == pytest.approx(x[1] - x[0])

    def test_liouville_regression_second_order(self, monkeypatch):
        # Solve with Q0 = 0 and exact boundary data; the discrete solution
        # must approach the closed form at second order in the spacing.
        monkeypatch.setattr(pde, "NEWTON_TOL", 1e-11)
        errors = []
        for n in (17, 33):
            x, y = square_axes(n)
            z = grid_z(x, y)
            bc = np.log(liouville_exact(z))
            result = pde.newton_solve(np.zeros((n, n)), bc, x, y)
            errors.append(np.max(np.abs(result.u - bc)))
        assert errors[1] < 5e-4
        order = np.log2(errors[0] / errors[1])
        assert order > 1.8

    @pytest.mark.parametrize("n", [33, 65, 129])
    def test_cg_count_does_not_grow_with_resolution(self, n):
        # CG preconditioned by the exact inverse of -Laplacian/4 + mean(c),
        # sine-matrix products along each axis, needs a bounded number of
        # iterations per linear solve at any h.
        # Solving every Newton step to CG_RTOL takes 39 in all on the
        # Liouville data; the forcing term asks only for what the outer
        # iteration needs.
        x, y = square_axes(n, half_width=0.6)
        z = grid_z(x, y)
        liouville = (np.zeros((n, n)), np.log(liouville_exact(z)))
        for q0, bc in (liouville, (z / 4.0, 0.0)):
            result = pde.newton_solve(q0, bc, x, y)
            assert max(result.cg_iterations) <= 12
            assert sum(result.cg_iterations[1:]) <= 16
            assert result.newton_iterations <= 8

    @pytest.mark.parametrize("n", [65, 129, 193])
    def test_rounding_floor_leaves_the_default_tol_in_charge(self, n):
        # below 2 floors < tol the stopping rule is the fixed tol: these
        # Newton and CG counts are the ones before the floor was estimated
        x, y = square_axes(n, half_width=0.6)
        bc = np.log(liouville_exact(grid_z(x, y)))
        result = pde.newton_solve(np.zeros((n, n)), bc, x, y)
        assert result.cg_iterations == [1, 1, 1, 2, 3, 3]
        assert result.final_residual <= 1e-10
        assert 0.0 < result.rounding_floor < 1e-10

    def test_fine_grid_stops_at_the_rounding_floor(self):
        # at 513^2 the max-norm residual cannot reach tol = 1e-10: the
        # stencil's h^-2 lifts its rounding floor to about 4e-10
        n = 513
        x, y = square_axes(n, half_width=0.6)
        bc = np.log(liouville_exact(grid_z(x, y)))
        result = pde.newton_solve(np.zeros((n, n)), bc, x, y)
        assert result.rounding_floor > 1e-10
        assert result.final_residual <= 2.0 * result.rounding_floor
        assert result.rounding_floor == pde._rounding_floor(result.u, x[1] - x[0])
        # criterion 4's accuracy law, scaled to h = 1.2 / 512
        assert np.max(np.abs(result.u - bc)) <= 5e-4 / 16.0

    def test_forcing_matches_the_tight_linear_solves(self, monkeypatch):
        # the inexact steps land on the same discrete solution as Newton
        # steps whose CG solves all run to CG_RTOL
        n = 65
        x, y = square_axes(n, half_width=0.6)
        z = grid_z(x, y)
        cases = [
            (np.zeros((n, n)), np.log(liouville_exact(z))),
            (z / 4.0, 0.0),
        ]
        inexact = [pde.newton_solve(q0, bc, x, y) for q0, bc in cases]
        monkeypatch.setattr(pde, "_forcing_term", lambda *args: pde.CG_RTOL)
        tight = [pde.newton_solve(q0, bc, x, y) for q0, bc in cases]
        for loose, exact in zip(inexact, tight):
            assert np.max(np.abs(loose.u - exact.u)) <= 1e-10
            assert loose.final_residual <= 1e-10
            assert sum(exact.cg_iterations) > sum(loose.cg_iterations)

    def test_residual_field_belongs_to_the_returned_iterate(self):
        # the line search's residual of the accepted step is reused as the
        # next step's residual, so it must be that of the final u, bitwise
        n = 65
        x, y = square_axes(n, half_width=0.6)
        z = grid_z(x, y)
        q0 = z / 4.0
        bc = np.log(liouville_exact(z)) / 4.0
        result = pde.newton_solve(q0, bc, x, y)
        assert result.newton_iterations >= 2
        expected = pde.pde_residual(result.u, np.abs(q0) ** 2, x[1] - x[0])
        np.testing.assert_array_equal(result.residual_field, expected)
        assert result.residual_history[-1] == np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "rows, cols",
        # interiors: odd x odd, one node (a 3 x 3 grid), 2 x 3, odd x even,
        # even x odd, and 190 columns, the even neighbour of the 191-node
        # interior the benchmark solves
        [(23, 39), (1, 1), (2, 3), (23, 40), (24, 39), (23, 190)],
    )
    def test_harmonic_fill_is_one_preconditioned_iteration(self, rows, cols):
        # with shift 0 the preconditioner is the exact inverse of
        # -Laplacian/4, also on a rectangular grid of square cells and on
        # either parity of each axis's mirror split
        x = np.linspace(-0.5, 0.5, cols + 2)
        y = -0.3 + (x[1] - x[0]) * np.arange(rows + 2)
        xx, yy = np.meshgrid(x, y)
        bc = 0.3 * xx - 0.2 * yy**2
        result = pde.newton_solve((xx + 1j * yy) / 4.0, bc, x, y)
        assert result.cg_iterations[0] <= 1
        assert result.final_residual <= 1e-10

    def test_sine_basis_is_built_once_per_solve(self, monkeypatch):
        # the harmonic fill and every Newton step share one basis
        built = []

        def counting(shape, h):
            built.append(shape)
            return sine_basis(shape, h)

        sine_basis = pde._sine_basis
        monkeypatch.setattr(pde, "_sine_basis", counting)
        x, y = square_axes(33, half_width=0.6)
        bc = np.log(liouville_exact(grid_z(x, y)))
        result = pde.newton_solve(np.zeros((33, 33)), bc, x, y)
        assert len(result.cg_iterations) >= 3
        assert built == [(31, 31)]

    def test_norm_of_a_finite_residual_is_finite(self):
        # the squares of entries past about 1e154 overflow; the norm does not
        assert pde._norm(np.full((3, 4), 1e300)) == pytest.approx(
            1e300 * np.sqrt(12.0), rel=1e-15
        )
        assert pde._norm(np.array([3.0, 4.0])) == 5.0
        assert pde._norm(np.array([1e300, np.inf])) == np.inf

    def test_cg_iteration_cap_raises(self, monkeypatch):
        # one CG iteration solves the harmonic fill exactly, but the
        # convergence test only runs at the top of the next iteration
        monkeypatch.setattr(pde, "CG_MAXITER", 1)
        x, y = square_axes(17, half_width=0.6)
        bc = np.log(liouville_exact(grid_z(x, y)))
        with pytest.raises(LinearSolveFailure, match="harmonic extension"):
            pde.newton_solve(np.zeros((17, 17)), bc, x, y)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(pde, "NEWTON_MAX_ITER", 1)
        x, y = square_axes(17)
        with pytest.raises(MaxIterExceeded) as info:
            pde.newton_solve(np.zeros((17, 17)), 0.0, x, y)
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

    def test_axes_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            pde.newton_solve(np.zeros((3, 3)), 0.0, [0.0, 1.0, np.inf], [0, 1, 2])

    @pytest.mark.parametrize("half_width", [1e-190, 1e300])
    def test_spacing_whose_square_leaves_the_float_range(self, half_width):
        # h^2 underflows to 0 or overflows: refused before any stencil
        x, y = square_axes(17, half_width=half_width)
        with pytest.raises(DomainError, match="h\\^2 or 1/h\\^2"):
            pde.newton_solve(np.zeros((17, 17)), 0.0, x, y)

    def test_q0_past_the_float_range_is_refused(self, monkeypatch):
        # |Q0|^2 of 1e200 z overflows: refused without a warning (the
        # suite makes one an error) and before the harmonic fill's CG
        x, y = square_axes(33, half_width=1.0)
        monkeypatch.setattr(pde, "_harmonic_fill", None)
        with pytest.raises(PotentialDataError, match="not finite"):
            pde.newton_solve(1e200 * grid_z(x, y), 0.0, x, y)

    @pytest.mark.parametrize("bc", [-1000.0, 1000.0])
    def test_residual_past_the_float_range_fails_the_linear_solve(self, bc):
        # exp(-u) or exp(u) overflows on the harmonic fill: the first
        # Newton step's CG refuses the residual, without a warning
        x, y = square_axes(17)
        with pytest.raises(LinearSolveFailure, match="step 1 .* 0 iterations"):
            pde.newton_solve(np.full((17, 17), 0.25), bc, x, y)

    def test_shape_validation(self):
        x, y = square_axes(9)
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((5, 5)), 0.0, x, y)
        with pytest.raises(DomainError):
            pde.newton_solve(np.zeros((9, 9)), np.zeros((5, 5)), x, y)


class TestForcingTerm:
    @pytest.mark.parametrize(
        "rnorm, previous_rnorm, previous_eta, tol, expected",
        [
            # first Newton step
            (10.0, None, None, 1e-10, 0.5),
            # 0.9 (1/10)^2; safeguard 0.9 * 0.1^2 = 0.009 <= 0.1 is inactive
            (1.0, 10.0, 0.1, 1e-10, 0.009),
            # safeguard 0.9 * 0.5^2 = 0.225 > 0.1 lifts 0.009
            (1.0, 10.0, 0.5, 1e-10, 0.225),
            # 0.9 (9/10)^2 = 0.729 is capped
            (9.0, 10.0, 0.1, 1e-10, 0.5),
            # 9e-9 is raised to the tolerance floor 0.5 * 1e-10 / 1e-8
            (1e-8, 1e-4, 0.01, 1e-10, 5e-3),
            # 9e-15 is raised to CG_RTOL (the tol floor is 5e-14)
            (1e-7, 1.0, 0.01, 1e-20, pde.CG_RTOL),
            # a start in Newton's local regime (the deferred correction's)
            # takes the floor 0.5 * 1e-10 / 1e-3
            (1e-3, np.inf, 0.0, 1e-10, 5e-8),
        ],
    )
    def test_table(self, rnorm, previous_rnorm, previous_eta, tol, expected):
        eta = pde._forcing_term(rnorm, previous_rnorm, previous_eta, tol)
        assert eta == pytest.approx(expected, rel=1e-14)


class TestDeferredCorrection:
    def test_liouville_order_is_fourth(self):
        # the 5-point solve's error halves twice per halving of h; the
        # corrected one's four times (1.4e-8 at 257^2, 5-point 1.3e-5)
        errors = []
        for n in (129, 257):
            x, y = square_axes(n, half_width=0.6)
            bc = np.log(liouville_exact(grid_z(x, y)))
            first = pde.newton_solve(np.zeros((n, n)), bc, x, y)
            result = pde.deferred_correction(first)
            errors.append(np.max(np.abs(result.u - bc)))
            # at 257^2 the rounding floor, 1.06e-10, takes the place of tol
            assert result.final_residual <= max(1e-10, 2 * result.rounding_floor)
        assert errors[1] <= 2e-8
        assert 3.7 <= np.log2(errors[0] / errors[1]) <= 4.3

    def test_one_step_on_the_solve_basis(self, monkeypatch):
        # the flagship's solve: from the 5-point solution the corrected
        # system is one Newton step with a tight CG solve away
        built = []

        def counting(shape, h):
            built.append(shape)
            return sine_basis(shape, h)

        sine_basis = pde._sine_basis
        monkeypatch.setattr(pde, "_sine_basis", counting)
        x, y = square_axes(97, half_width=1.0)
        first = pde.newton_solve(grid_z(x, y) / 4.0, 0.0, x, y)
        u, counts = first.u.copy(), list(first.cg_iterations)
        result = pde.deferred_correction(first)
        assert built == [(95, 95)]
        assert result.basis is first.basis
        assert result.newton_iterations == 1
        assert result.cg_iterations == [4]
        assert result.final_residual <= 1e-10
        tau = pde.truncation_source(first.u, x[1] - x[0])
        start = result.residual_history[0]
        assert start == pytest.approx(np.max(np.abs(tau)), rel=1e-6)
        # the 5-point result is left as it was
        np.testing.assert_array_equal(first.u, u)
        assert first.cg_iterations == counts

    def test_truncation_source_is_exact_on_quintics(self):
        # every fourth difference, the one-sided ones next to the edges
        # included, is exact through degree 5: tau = (24 + 0) h^2 / 48
        x, y = square_axes(9)
        h = x[1] - x[0]
        xx, yy = np.meshgrid(x, y)
        u = xx**4 + 0.5 * xx**5 - yy**5 + xx * yy**3
        expected = (24.0 + 60.0 * xx - 120.0 * yy) * h * h / 48.0
        np.testing.assert_allclose(
            pde.truncation_source(u, h), expected[1:-1, 1:-1], rtol=0, atol=1e-12
        )

    def test_truncation_source_is_mirror_symmetric_bit_for_bit(self):
        u = np.random.default_rng(12).standard_normal((11, 14))
        tau = pde.truncation_source(u, 0.1)
        np.testing.assert_array_equal(pde.truncation_source(u[::-1], 0.1), tau[::-1])
        np.testing.assert_array_equal(
            pde.truncation_source(u[:, ::-1], 0.1), tau[:, ::-1]
        )
        np.testing.assert_array_equal(pde.truncation_source(u.T, 0.1), tau.T)

    def test_needs_six_nodes_per_axis(self):
        x = np.linspace(-0.5, 0.5, 9)
        first = pde.newton_solve(np.zeros((5, 9)), 0.0, x, x[2:7])
        with pytest.raises(DomainError, match="6 nodes"):
            pde.deferred_correction(first)


class TestLinearSolve:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (7, 4), (6, 9)])
    def test_fast_poisson_inverts_the_shifted_operator(self, rows, cols):
        # the exact inverse, not one up to a factor, which CG would not see
        h, shift = 0.1, 2.5
        x = np.random.default_rng(9).standard_normal((rows, cols))
        padded = np.zeros((rows + 2, cols + 2))
        padded[1:-1, 1:-1] = x
        image = shift * x - pde._quarter_laplacian(padded, h)
        solve = pde._fast_poisson(basis_of(x, h), shift)
        np.testing.assert_allclose(solve(image), x, rtol=0, atol=1e-13)

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
        sol, iterations = pde._cg_solve(c, rhs, basis_of(rhs, h), "test")
        assert sol.shape == (rows, cols)
        assert 0 < iterations <= 12
        np.testing.assert_allclose(sol, expected, rtol=0, atol=1e-11)

    def test_rhs_that_is_not_finite_fails_after_0_iterations(self):
        basis = basis_of(np.zeros((5, 7)), 0.1)
        for value in (np.nan, np.inf):
            rhs = np.ones((5, 7))
            rhs[2, 3] = value
            with pytest.raises(LinearSolveFailure, match="after 0 iterations"):
                pde._cg_solve(1.0, rhs, basis, "test")

    def test_residual_that_is_not_finite_fails_at_once(self):
        # a NaN coefficient spoils the first update's residual
        c = np.ones((5, 7))
        c[1, 1] = np.nan
        with pytest.raises(LinearSolveFailure, match="after 1 iterations"):
            pde._cg_solve(c, np.ones((5, 7)), basis_of(c, 0.1), "test")

    def test_rtol_is_the_relative_stopping_threshold(self):
        rows, cols, h = 15, 15, 0.1
        rng = np.random.default_rng(8)
        c = 1.0 + 40.0 * rng.random((rows, cols))
        rhs = rng.standard_normal((rows, cols))
        padded = np.zeros((rows + 2, cols + 2))
        basis = basis_of(rhs, h)
        counts = []
        for rtol in (1e-2, 1e-6, pde.CG_RTOL):
            sol, iterations = pde._cg_solve(c, rhs, basis, "test", rtol=rtol)
            padded[1:-1, 1:-1] = sol
            residual = rhs - (c * sol - pde._quarter_laplacian(padded, h))
            # at CG_RTOL the recomputed residual is at its rounding floor
            if rtol > pde.CG_RTOL:
                bound = 1.01 * rtol * np.linalg.norm(rhs)
                assert np.linalg.norm(residual) < bound
            counts.append(iterations)
        assert counts[0] < counts[1] < counts[2]
        assert pde._cg_solve(c, rhs, basis, "test")[1] == counts[2]

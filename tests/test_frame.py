"""Tests for the moving-frame integration of the Lax connection.

The strongest check here is an independent closed-form oracle: for a
constant potential the two connection matrices commute and are constant
over the plane, so the frame is exactly exp(z U + z̄ V), and its parameter
derivatives are Fréchet derivatives of the matrix exponential, computable
from block-triangular augmented exponentials.  The RK4 march must agree
with this oracle to its own discretization accuracy on every node.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from nilsurf import frame
from nilsurf.errors import DomainError, NonFlatInput
from nilsurf.pde import newton_solve
from nilsurf.potentials import Potential
from nilsurf.surface import generate_surface

UNIT_POTENTIAL = Potential.constant(1.0, (0.25,))


def expm_oracle(potential, z, t):
    """Frame triple for a constant potential via augmented exponentials.

    Valid when the connection matrices are constant in z and commute, so
    that the frame is exp(M) with M = z U + z̄ V.  The t-derivatives come
    from the block identities

        expm([[M, M'], [0, M]])            -> (1,2) block = d/dt expm(M)
        expm([[M, M', M''/2], [0, M, M'], [0, 0, M]])
                                           -> (1,3) block = d²/dt² expm(M) / 2
    """
    pair = frame.connection_at(potential, z, t)
    zc = np.asarray(z, dtype=complex)[..., None, None]
    m = zc * pair.u + np.conj(zc) * pair.v
    m_t = zc * pair.u_t + np.conj(zc) * pair.v_t
    m_tt = zc * pair.u_tt + np.conj(zc) * pair.v_tt
    big = np.zeros(m.shape[:-2] + (6, 6), dtype=complex)
    for k in range(3):
        big[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = m
    big[..., 0:2, 2:4] = m_t
    big[..., 2:4, 4:6] = m_t
    big[..., 0:2, 4:6] = m_tt / 2.0
    e = expm(big)
    return e[..., 0:2, 0:2], e[..., 0:2, 2:4], 2.0 * e[..., 0:2, 4:6]


class TestConnection:
    def test_unit_potential_entries_at_t0(self):
        pair = frame.connection_at(UNIT_POTENTIAL, 0.3 + 0.1j, 0.0)
        expected = np.array([[0.0, 0.25j], [-0.25j, 0.0]])
        np.testing.assert_array_equal(pair.u, expected)
        np.testing.assert_array_equal(pair.v, expected)

    def test_unit_potential_family_phase(self):
        t = 0.6
        pair = frame.connection_at(UNIT_POTENTIAL, 0.0j, t)
        np.testing.assert_allclose(
            pair.u[1, 0], -0.25j * np.exp(2j * t), rtol=1e-15
        )
        np.testing.assert_allclose(
            pair.v[0, 1], 0.25j * np.exp(-2j * t), rtol=1e-15
        )
        np.testing.assert_array_equal(pair.u_t[1, 0], 2j * pair.u[1, 0])
        np.testing.assert_array_equal(pair.u_tt[1, 0], -4.0 * pair.u[1, 0])
        np.testing.assert_array_equal(pair.v_t[0, 1], -2j * pair.v[0, 1])
        np.testing.assert_array_equal(pair.v_tt[0, 1], -4.0 * pair.v[0, 1])
        # only the family entries depend on t
        assert pair.u_t[0, 0] == pair.u_t[0, 1] == 0.0
        assert pair.v_t[0, 0] == pair.v_t[1, 0] == 0.0

    def test_liouville_entries(self):
        # at z = 1/2: rho0 = 256/9, sqrt = 16/3, (log rho0)_z = 4/3
        pair = frame.connection_at(Potential.liouville(), 0.5 + 0.0j, 0.0)
        np.testing.assert_allclose(pair.u[0, 0], 1.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(pair.u[0, 1], 4j / 3.0, rtol=1e-15)
        np.testing.assert_allclose(pair.v[1, 0], -4j / 3.0, rtol=1e-15)
        np.testing.assert_allclose(pair.v[0, 0], -1.0 / 3.0, rtol=1e-15)
        # Q0 = 0 kills the family entries
        np.testing.assert_array_equal(pair.u[1, 0], 0.0)
        np.testing.assert_array_equal(pair.v[0, 1], 0.0)

    def test_connection_is_traceless(self):
        rng = np.random.default_rng(31)
        z = 0.6 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        for pot in (Potential.liouville(), Potential.constant(3.0, (0.1, 0.2))):
            pair = frame.connection_at(pot, z, 0.4)
            np.testing.assert_allclose(
                np.trace(pair.u, axis1=-2, axis2=-1), 0.0, atol=1e-15
            )
            np.testing.assert_allclose(
                np.trace(pair.v, axis1=-2, axis2=-1), 0.0, atol=1e-15
            )


class TestFlatness:
    def test_admissible_constant_data_is_exactly_flat(self):
        z = np.array([0.1 + 0.2j, -0.3j])
        res = frame.flatness_residual(UNIT_POTENTIAL, z, 0.0)
        np.testing.assert_array_equal(res, 0.0)
        # away from t = 0 the family phase rounds, leaving only dust
        res = frame.flatness_residual(UNIT_POTENTIAL, z, 0.8)
        assert np.max(np.abs(res)) < 1e-15

    def test_admissible_liouville_data_is_flat_to_probe_accuracy(self):
        z = np.array([0.0j, 0.3 - 0.2j, 0.5 + 0.1j])
        res = frame.flatness_residual(Potential.liouville(), z, 0.0)
        assert np.max(np.abs(res)) < 1e-7

    def test_inadmissible_data_has_order_one_curvature(self):
        # rho0 = 1 with Q0 = 0 violates the structure equation; the
        # curvature is the constant commutator diag(1/16, -1/16).
        res = frame.flatness_residual(Potential.constant(1.0, (0.0,)), 0.0j, 0.0)
        np.testing.assert_allclose(
            res, np.diag([-1.0 / 16.0, 1.0 / 16.0]), atol=1e-12
        )

    def test_integrator_gate_rejects_inadmissible_data(self):
        ax = np.linspace(-0.2, 0.2, 5)
        bad = Potential.constant(1.0, (0.0,))
        with pytest.raises(NonFlatInput):
            frame.integrate_grid(bad, ax, ax, 0.0)
        # integrability residual 4e-6: over the gate's 1e-6 although the
        # finite-difference curvature is only 2e-6
        near = Potential.constant(1.0, (0.25 + 4e-6,))
        with pytest.raises(NonFlatInput):
            generate_surface(near, ax, ax, 0.0)
        # the gate can be disabled for studying the failure mode
        field = frame.integrate_grid(bad, ax, ax, 0.0, check_flatness=False)
        assert np.all(np.isfinite(field.psi))

    def test_integrator_gate_rejects_unconverged_solve(self):
        class FakeSolution:
            x = np.linspace(-0.5, 0.5, 17)
            y = np.linspace(-0.5, 0.5, 17)
            u = np.zeros((17, 17))
            residual_field = np.full((17, 17), 1e-3)

        bad = Potential.solved(FakeSolution(), (0.25,))
        ax = np.linspace(-0.2, 0.2, 5)
        with pytest.raises(NonFlatInput):
            frame.integrate_grid(bad, ax, ax, 0.0)


class TestIntegration:
    def test_base_node_is_exact(self):
        ax = np.linspace(-0.4, 0.4, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.3)
        np.testing.assert_array_equal(field.psi[4, 4], np.eye(2))
        np.testing.assert_array_equal(field.psi_t[4, 4], 0.0)
        np.testing.assert_array_equal(field.psi_tt[4, 4], 0.0)
        assert field.t == 0.3
        np.testing.assert_array_equal(
            field.z_nodes, ax[None, :] + 1j * ax[:, None]
        )

    def test_matches_exponential_oracle_on_nodes(self):
        ax = np.linspace(-0.4, 0.4, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.9)
        psi, psi_t, psi_tt = expm_oracle(UNIT_POTENTIAL, field.z_nodes, 0.9)
        assert np.max(np.abs(field.psi - psi)) < 2e-8
        assert np.max(np.abs(field.psi_t - psi_t)) < 8e-8
        assert np.max(np.abs(field.psi_tt - psi_tt)) < 2e-7

    def test_matches_oracle_with_offset_grid(self):
        # no node sits at the base point, so the march must take a
        # starting step from exact zero before sweeping
        ax = np.linspace(-0.35, 0.45, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.2)
        psi, _, _ = expm_oracle(UNIT_POTENTIAL, field.z_nodes, 0.2)
        assert np.max(np.abs(field.psi - psi)) < 2e-8

    def test_determinant_is_conserved(self):
        ax = np.linspace(-0.4, 0.4, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.5)
        assert field.det_deviation() < 1e-9

    def test_family_parameter_periodicity(self):
        ax = np.linspace(-0.3, 0.3, 7)
        a = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.3)
        b = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.3 + np.pi)
        assert np.max(np.abs(a.psi - b.psi)) < 1e-12
        assert np.max(np.abs(a.psi_t - b.psi_t)) < 1e-12

    def test_t_derivatives_match_finite_differences(self):
        # the coupled march carries psi_t and psi_tt; cross-check them
        # against centered differences of independent integrations in t
        ax = np.linspace(-0.4, 0.4, 9)
        t0, dt = 0.7, 1e-3
        mid = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, t0)
        hi = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, t0 + dt)
        lo = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, t0 - dt)
        fd_t = (hi.psi - lo.psi) / (2 * dt)
        fd_tt = (hi.psi - 2 * mid.psi + lo.psi) / dt**2
        assert np.max(np.abs(fd_t - mid.psi_t)) < 1e-5
        assert np.max(np.abs(fd_tt - mid.psi_tt)) < 1e-5

    def test_path_independence_for_flat_data(self):
        ax = np.linspace(-0.4, 0.4, 17)
        pot = Potential.liouville()
        row = frame.integrate_grid(pot, ax, ax, 0.0, path_order="row-major")
        col = frame.integrate_grid(pot, ax, ax, 0.0, path_order="column-major")
        assert np.max(np.abs(row.psi - col.psi)) < 1e-5

    def test_substeps_shrink_error_at_fourth_order(self):
        ax = np.linspace(-0.4, 0.4, 5)  # deliberately coarse segments
        pot = Potential.liouville()
        ref = frame.integrate_grid(pot, ax, ax, 0.0, substeps=16)
        errors = []
        for sub in (1, 2):
            field = frame.integrate_grid(pot, ax, ax, 0.0, substeps=sub)
            errors.append(np.max(np.abs(field.psi - ref.psi)))
        assert errors[0] / errors[1] > 12.0

    def test_grid_must_contain_base_point(self):
        good = np.linspace(-0.4, 0.4, 5)
        off = np.linspace(0.1, 0.5, 5)
        with pytest.raises(DomainError):
            frame.integrate_grid(UNIT_POTENTIAL, off, good, 0.0)
        with pytest.raises(DomainError):
            frame.integrate_grid(UNIT_POTENTIAL, good, -off, 0.0)

    def test_unknown_path_order_rejected(self):
        ax = np.linspace(-0.2, 0.2, 5)
        with pytest.raises(ValueError):
            frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.0, path_order="spiral")


@pytest.fixture(scope="module")
def family_potentials():
    xs = np.linspace(-0.5, 0.5, 33)
    z = xs[None, :] + 1j * xs[:, None]
    q0 = (0.0, 0.25)
    solve = newton_solve(
        Potential.constant(1.0, q0).q0(z), np.zeros(z.shape), xs, xs
    )
    return {
        "constant": UNIT_POTENTIAL,
        "liouville": Potential.liouville(),
        "solved": Potential.solved(solve, q0),
    }


class TestFamilyMarch:
    T_VALUES = [0.0, 0.7, 2.1]

    @pytest.mark.parametrize("kind", ["constant", "liouville", "solved"])
    @pytest.mark.parametrize("path_order", ["row-major", "column-major"])
    @pytest.mark.parametrize("substeps", [1, 2])
    def test_batched_march_equals_scalar_calls(
        self, family_potentials, kind, path_order, substeps
    ):
        # Agreement is not bitwise: NumPy's vectorized complex products
        # round an element differently depending on its position in the
        # array, and the t axis moves every position (3e-17 seen).
        pot = family_potentials[kind]
        on_node = np.linspace(-0.4, 0.4, 9)
        off_node = np.linspace(-0.35, 0.45, 9)
        for ax in (on_node, off_node):
            options = {"path_order": path_order, "substeps": substeps}
            batch = frame.integrate_grid(pot, ax, ax, self.T_VALUES, **options)
            assert [member.t for member in batch] == self.T_VALUES
            for t, member in zip(self.T_VALUES, batch):
                single = frame.integrate_grid(pot, ax, ax, t, **options)
                for name in ("psi", "psi_t", "psi_tt"):
                    np.testing.assert_allclose(
                        getattr(member, name), getattr(single, name),
                        rtol=0.0, atol=1e-14,
                    )

    def test_entry_wise_kernel_matches_dense_products(self, family_potentials):
        # reference: the dense connection from connection_at and generic @
        rng = np.random.default_rng(5)
        pot = family_potentials["solved"]
        t_values = np.array([0.2, 1.3])
        z = 0.3 * (rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7))
        dz = 0.05 * (rng.normal(size=7) + 1j * rng.normal(size=7))
        shape = (3, 2, 2, t_values.size, z.size)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        omega = frame._omega(
            frame._sample(pot, z), dz, np.exp(2j * t_values)[:, None]
        )
        k = frame._rhs(state, omega)
        d = dz[:, None, None]
        for m, t in enumerate(t_values):
            pair = frame.connection_at(pot, z, t)
            w = pair.u * d + pair.v * np.conj(d)
            w_t = pair.u_t * d + pair.v_t * np.conj(d)
            w_tt = pair.u_tt * d + pair.v_tt * np.conj(d)
            psi, psi_t, psi_tt = np.moveaxis(state[..., m, :], -1, 1)
            expected = (
                psi @ w,
                psi_t @ w + psi @ w_t,
                psi_tt @ w + 2.0 * (psi_t @ w_t) + psi @ w_tt,
            )
            for got, want in zip(np.moveaxis(k[..., m, :], -1, 1), expected):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_members_own_their_arrays(self):
        ax = np.linspace(-0.2, 0.2, 5)
        a, b = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, (0.1, 0.2))
        for x in (a.psi, a.psi_t, a.psi_tt):
            for y in (b.psi, b.psi_t, b.psi_tt):
                assert not np.shares_memory(x, y)

    def test_t_must_be_scalar_or_flat(self):
        ax = np.linspace(-0.2, 0.2, 5)
        with pytest.raises(ValueError):
            frame.integrate_grid(UNIT_POTENTIAL, ax, ax, [[0.1, 0.2]])


def reference_march(potential, x, y, t_values, path_order, substeps):
    """integrate_grid's march, one public rk4_step call per (sub)step.

    The base line is marched node by node outward from the node nearest
    z = 0 (after a starting step from z = 0 when that node is not 0), then
    whole rows (columns for column-major) outward from the base line.
    Returns the triple of each member as arrays of shape (3, ny, nx, 2, 2).
    """
    phase = np.exp(2j * np.asarray(t_values))[:, None]
    z = x[None, :] + 1j * y[:, None]
    i0, j0 = int(np.argmin(np.abs(x))), int(np.argmin(np.abs(y)))
    if path_order == "column-major":
        z, i0, j0 = z.T, j0, i0
    out = np.zeros((3, 2, 2, len(t_values)) + z.shape, dtype=complex)

    def advance(state, z0, z1):
        if substeps == 1:
            return frame.rk4_step(potential, state, z0, z1, phase)
        for k in range(substeps):
            a = z0 + (z1 - z0) * (k / substeps)
            b = z0 + (z1 - z0) * ((k + 1) / substeps)
            state = frame.rk4_step(potential, state, a, b, phase)
        return state

    state = np.zeros((3, 2, 2, len(t_values), 1), dtype=complex)
    state[0, 0, 0] = state[0, 1, 1] = 1.0
    if z[j0, i0] != 0.0:
        # 0-d points, as in the march: a 1-element array can round otherwise
        state = advance(state, np.asarray(0.0j), np.asarray(z[j0, i0]))
    out[..., j0, i0 : i0 + 1] = state
    n_rows, n_cols = z.shape
    for cols in (range(i0 + 1, n_cols), range(i0 - 1, -1, -1)):
        for i in cols:
            src = i - 1 if i > i0 else i + 1
            out[..., j0, i : i + 1] = advance(
                out[..., j0, src : src + 1], z[j0, src : src + 1], z[j0, i : i + 1]
            )
    for rows in (range(j0 + 1, n_rows), range(j0 - 1, -1, -1)):
        for j in rows:
            src = j - 1 if j > j0 else j + 1
            out[..., j, :] = advance(out[..., src, :], z[src], z[j])
    if path_order == "column-major":
        out = out.swapaxes(-1, -2)
    return [np.moveaxis(out[:, :, :, m], (1, 2), (3, 4)) for m in range(len(t_values))]


class TestSampledMarch:
    T_VALUES = [0.0, 0.7, 2.1]

    @pytest.mark.parametrize("kind", ["constant", "liouville", "solved"])
    @pytest.mark.parametrize("path_order", ["row-major", "column-major"])
    @pytest.mark.parametrize("substeps", [1, 2])
    def test_march_equals_rk4_step_loop_bitwise(
        self, family_potentials, kind, path_order, substeps
    ):
        pot = family_potentials[kind]
        on_node = (np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 7))
        off_node = (np.linspace(-0.35, 0.45, 9), np.linspace(-0.31, 0.41, 7))
        for x, y in (on_node, off_node):
            fields = frame.integrate_grid(
                pot, x, y, self.T_VALUES, path_order=path_order, substeps=substeps
            )
            expected = reference_march(pot, x, y, self.T_VALUES, path_order, substeps)
            for field, triple in zip(fields, expected):
                for name, want in zip(("psi", "psi_t", "psi_tt"), triple):
                    assert np.array_equal(getattr(field, name), want), name

    def test_grid_past_the_solved_rectangle_fails_before_marching(
        self, family_potentials, monkeypatch
    ):
        kernel_calls = []
        kernel = frame._rk4
        monkeypatch.setattr(
            frame, "_rk4", lambda *args: kernel_calls.append(1) or kernel(*args)
        )
        ax = np.linspace(-0.4, 0.4, 9)
        for x in (np.linspace(-0.4, 0.6, 11), np.linspace(-0.43, 0.57, 11)):
            with pytest.raises(DomainError):
                frame.integrate_grid(family_potentials["solved"], x, ax, 0.3)
        assert kernel_calls == []

    @pytest.mark.parametrize("kind", ["liouville", "solved"])
    def test_potential_calls_do_not_grow_with_the_march(self, family_potentials, kind):
        class Counting:
            """The wrapped potential, counting its evaluator calls."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def _count(self, name, z):
                self.calls += 1
                return getattr(self.inner, name)(z)

            def rho0(self, z):
                return self._count("rho0", z)

            def dlog_rho0_dz(self, z):
                return self._count("dlog_rho0_dz", z)

            def q0(self, z):
                return self._count("q0", z)

        def calls(n, t, offset):
            pot = Counting(family_potentials[kind])
            ax = np.linspace(-0.4, 0.4, n) + offset
            frame.integrate_grid(pot, ax, ax, t)
            return pot.calls

        for offset in (0.0, 0.03):
            counts = {
                calls(n, t, offset) for n in (9, 33) for t in (0.3, [0.1, 0.3, 1.2])
            }
            assert len(counts) == 1

"""Tests for the moving-frame integration of the Lax connection.

The strongest check here is an independent closed-form oracle: for a
constant potential the two connection matrices commute and are constant
over the plane, so the frame is exactly exp(z U + z̄ V), and its parameter
derivatives are Fréchet derivatives of the matrix exponential, computable
from block-triangular augmented exponentials.  The RK4 march must agree
with this oracle to its own discretization accuracy on every node.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from march_reference import reference_march
from nilsurf import config, frame, pipeline
from nilsurf.errors import DomainError, NonFlatInput, SingularFrameError
from nilsurf.pde import newton_solve
from nilsurf.potentials import Potential
from nilsurf.surface import generate_surface

UNIT_POTENTIAL = Potential.constant(1.0, (0.25,))

#: (x, y) axes with the base node centred, on an edge, lopsided, and off
#: any node (z = 0 between nodes)
MARCH_GRIDS = (
    (np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 7)),
    (np.linspace(0.0, 0.4, 11), np.linspace(-0.36, 0.0, 10)),
    (np.linspace(-0.1, 0.4, 11), np.linspace(-0.35, 0.05, 9)),
    (np.linspace(-0.13, 0.37, 11), np.linspace(-0.31, 0.41, 7)),
)


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


def flatness_residual(potential, z, t, probe=1e-4):
    """Curvature of the connection at points z by central differences.

    Returns the matrix field

        d(U)/dz̄ - d(V)/dz - [U, V]

    sampled with central differences of step `probe` in x and y.  For
    admissible analytic data this vanishes to O(probe^2); for inadmissible
    data it is O(1).  An independent check of `connection_at` against the
    admissibility condition; the integration gate is `_check_admissibility`.
    """
    z = np.asarray(z, dtype=complex)

    def u_of(w):
        return frame.connection_at(potential, w, t).u

    def v_of(w):
        return frame.connection_at(potential, w, t).v

    ux = (u_of(z + probe) - u_of(z - probe)) / (2.0 * probe)
    uy = (u_of(z + 1j * probe) - u_of(z - 1j * probe)) / (2.0 * probe)
    vx = (v_of(z + probe) - v_of(z - probe)) / (2.0 * probe)
    vy = (v_of(z + 1j * probe) - v_of(z - 1j * probe)) / (2.0 * probe)
    u_zbar = (ux + 1j * uy) / 2.0
    v_z = (vx - 1j * vy) / 2.0
    pair = frame.connection_at(potential, z, t)
    return u_zbar - v_z - (pair.u @ pair.v - pair.v @ pair.u)


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
        res = flatness_residual(UNIT_POTENTIAL, z, 0.0)
        np.testing.assert_array_equal(res, 0.0)
        # away from t = 0 the family phase rounds, leaving only dust
        res = flatness_residual(UNIT_POTENTIAL, z, 0.8)
        assert np.max(np.abs(res)) < 1e-15

    def test_admissible_liouville_data_is_flat_to_probe_accuracy(self):
        z = np.array([0.0j, 0.3 - 0.2j, 0.5 + 0.1j])
        res = flatness_residual(Potential.liouville(), z, 0.0)
        assert np.max(np.abs(res)) < 1e-7

    def test_inadmissible_data_has_order_one_curvature(self):
        # rho0 = 1 with Q0 = 0 violates the structure equation; the
        # curvature is the constant commutator diag(1/16, -1/16).
        res = flatness_residual(Potential.constant(1.0, (0.0,)), 0.0j, 0.0)
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


    def test_integrator_gate_rejects_a_nan_residual(self):
        # one NaN in the stored solve residual: max |residual| is NaN, and
        # NaN > threshold is false, so the gate used to let it through
        class PoisonedSolution:
            x = np.linspace(-0.5, 0.5, 17)
            y = np.linspace(-0.5, 0.5, 17)
            u = np.zeros((17, 17))
            residual_field = np.zeros((17, 17))

        PoisonedSolution.residual_field[8, 8] = np.nan  # at z = 0
        bad = Potential.solved(PoisonedSolution(), (0.25,))
        ax = np.linspace(-0.2, 0.2, 5)
        with np.errstate(all="ignore"), pytest.raises(
            NonFlatInput, match="not finite"
        ):
            frame.integrate_grid(bad, ax, ax, 0.0)

    def test_overflows_reach_the_gates_without_a_warning(self):
        # the suite makes a RuntimeWarning an error.  2 |Q0|^2 overflows
        # in the residual: the admissibility gate refuses it
        ax = np.linspace(-0.5, 0.5, 9)
        with pytest.raises(NonFlatInput, match="not finite"):
            frame.integrate_grid(Potential.constant(4e200, (1e200,)), ax, ax, 0.0)
        # admissible data on a window of width 2e20, and a t whose phase
        # exp(2 i t) overflows: frames that are not finite, which the
        # singular-frame gate of the assembly refuses
        for scale, t in ((2e20, 0.0), (1.0, 1e308)):
            field = frame.integrate_grid(UNIT_POTENTIAL, scale * ax, scale * ax, t)
            assert not np.all(np.isfinite(field.row))
            with pytest.raises(SingularFrameError, match="not finite"):
                generate_surface(UNIT_POTENTIAL, scale * ax, scale * ax, t)


class TestIntegration:
    def test_base_node_is_exact(self):
        ax = np.linspace(-0.4, 0.4, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.3)
        np.testing.assert_array_equal(field.psi[4, 4], np.eye(2))
        np.testing.assert_array_equal(field.psi_t[4, 4], 0.0)
        np.testing.assert_array_equal(field.psi_tt[4, 4], 0.0)
        assert field.t == 0.3

    def test_matches_exponential_oracle_on_nodes(self):
        ax = np.linspace(-0.4, 0.4, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.9)
        z = ax[None, :] + 1j * ax[:, None]
        psi, psi_t, psi_tt = expm_oracle(UNIT_POTENTIAL, z, 0.9)
        assert np.max(np.abs(field.psi - psi)) < 2e-8
        assert np.max(np.abs(field.psi_t - psi_t)) < 8e-8
        assert np.max(np.abs(field.psi_tt - psi_tt)) < 2e-7

    def test_matches_oracle_with_offset_grid(self):
        # no node sits at the base point, so the march must take a
        # starting step from exact zero before sweeping
        ax = np.linspace(-0.35, 0.45, 9)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.2)
        psi, _, _ = expm_oracle(UNIT_POTENTIAL, ax[None, :] + 1j * ax[:, None], 0.2)
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

    def test_path_independence_for_flat_data(self, family_potentials):
        # the program marches rows first; the reference marches columns
        # first (measured: 0, 1.9e-8 and 9.1e-6 for the solved source,
        # a 5-point solve, which is admissible only to O(h^2); with the
        # deferred correction that generate applies it reads 2.5e-8)
        ax = np.linspace(-0.4, 0.4, 17)
        for kind, pot in family_potentials.items():
            row = frame.integrate_grid(pot, ax, ax, 0.0)
            (col,) = reference_march(pot, ax, ax, [0.0], "column-major")
            bound = 1e-7 if kind == "corrected" else 1e-5
            assert np.max(np.abs(row.psi - col[0])) < bound

    def test_substeps_shrink_error_at_fourth_order(self, family_potentials):
        # against the reference march at 16 substeps (a ratio of 25 on
        # the solved source; a bilinear interpolant's kinks at the solver's
        # cell edges would cap it near 4).
        ax = np.linspace(-0.4, 0.4, 5)  # deliberately coarse segments
        for kind in ("constant", "liouville", "solved"):
            pot = family_potentials[kind]
            (ref,) = reference_march(pot, ax, ax, [0.0], substeps=16)
            one = frame.integrate_grid(pot, ax, ax, 0.0).psi - ref[0]
            (two,) = reference_march(pot, ax, ax, [0.0], substeps=2)
            assert np.max(np.abs(one)) / np.max(np.abs(two[0] - ref[0])) > 12.0

    def test_grid_must_contain_base_point(self):
        good = np.linspace(-0.4, 0.4, 5)
        off = np.linspace(0.1, 0.5, 5)
        with pytest.raises(DomainError):
            frame.integrate_grid(UNIT_POTENTIAL, off, good, 0.0)
        with pytest.raises(DomainError):
            frame.integrate_grid(UNIT_POTENTIAL, good, -off, 0.0)


@pytest.fixture(scope="module")
def family_potentials():
    xs = np.linspace(-0.5, 0.5, 33)
    z = xs[None, :] + 1j * xs[:, None]
    q0 = (0.0, 0.25)
    solve = newton_solve(
        Potential.constant(1.0, q0).q0(z), np.zeros(z.shape), xs, xs
    )
    # the potential generate ships: the same solve, to fourth order
    solver = {"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 33, "ny": 33}
    rho0 = {"source": "solved", "bc": 0.0, "solver_domain": solver}
    domain = {"xmin": -0.4, "xmax": 0.4, "ymin": -0.4, "ymax": 0.4, "nx": 17, "ny": 17}
    shipped = config.parse_config(
        json.dumps(
            {"potential": {"q0_coefficients": q0, "rho0": rho0}, "domain": domain}
        )
    )
    return {
        "constant": UNIT_POTENTIAL,
        "liouville": Potential.liouville(),
        "solved": Potential.solved(solve, q0),
        "corrected": pipeline.build_potential(shipped)[0],
    }


class TestFamilyMarch:
    T_VALUES = [0.0, 0.7, 2.1]

    @pytest.mark.parametrize("kind", ["constant", "liouville", "solved"])
    @pytest.mark.parametrize("path_order", ["row-major", "column-major"])
    @pytest.mark.parametrize("substeps", [1, 2])
    def test_batched_march_equals_scalar_calls(
        self, family_potentials, kind, path_order, substeps
    ):
        # The program's march, and the reference march on the given path
        # and step count (the same kernel on the full state).  Agreement
        # is not bitwise: NumPy's vectorized complex products round an
        # element differently depending on its position in the array, and
        # the t axis moves every position (3e-17 seen).
        pot = family_potentials[kind]
        on_node = np.linspace(-0.4, 0.4, 9)
        off_node = np.linspace(-0.35, 0.45, 9)
        for ax in (on_node, off_node):
            batch = frame.integrate_grid(pot, ax, ax, self.T_VALUES)
            assert [member.t for member in batch] == self.T_VALUES
            references = reference_march(
                pot, ax, ax, self.T_VALUES, path_order, substeps
            )
            for t, member, reference in zip(self.T_VALUES, batch, references):
                single = frame.integrate_grid(pot, ax, ax, t)
                (single_reference,) = reference_march(
                    pot, ax, ax, [t], path_order, substeps
                )
                for got, want in zip(
                    (member.psi, member.psi_t, member.psi_tt, *reference),
                    (single.psi, single.psi_t, single.psi_tt, *single_reference),
                ):
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

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
        # one march array, in which each member's row is a region of its own
        assert not np.shares_memory(a.row, b.row)
        for x in (a.psi, a.psi_t, a.psi_tt):
            for y in (b.psi, b.psi_t, b.psi_tt):
                assert not np.shares_memory(x, y)

    def test_the_program_reads_only_the_row(self, tmp_path, monkeypatch):
        # the family's frames are views of one march array, and neither
        # the assembly nor the generate command forms a full matrix
        ax = np.linspace(-0.2, 0.2, 5)
        members = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, (0.1, 0.2, 0.3))
        march = members[0].row.base
        assert march.size == 3 * 2 * 3 * 5 * 5
        for m in members:
            assert m.row.shape == (3, 2, 5, 5)
            assert m.row.base is march and np.shares_memory(m.row, march)

        def refuse(field):
            raise AssertionError("a full frame matrix was read")

        for name in ("psi", "psi_t", "psi_tt"):
            monkeypatch.setattr(frame.FrameField, name, property(refuse))
        with pytest.raises(AssertionError, match="full frame matrix"):
            members[0].psi
        generate_surface(UNIT_POTENTIAL, ax, ax, (0.1, 0.2))
        run = config.parse_config(
            json.dumps(
                {
                    "potential": {
                        "q0_coefficients": [0.25],
                        "rho0": {"source": "constant", "value": 1.0},
                    },
                    "domain": {
                        "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
                        "nx": 17, "ny": 17,
                    },
                    "t_values": [0.0, 0.7],
                    "outputs": {
                        "mesh": str(tmp_path / "m_{t}.obj"),
                        "report": str(tmp_path / "report.json"),
                    },
                }
            )
        )
        assert pipeline.run_generate(run, log=lambda *_: None)[0] == 0

    def test_t_must_be_scalar_or_flat(self):
        # a 2-D, empty or non-finite t is refused before the gate and
        # before the potential is sampled
        class Untouchable:
            """A potential that fails any evaluation."""

            def __getattr__(self, name):
                raise AssertionError(f"potential.{name} was called")

        ax = np.linspace(-0.2, 0.2, 5)
        for t in ([[0.1, 0.2]], [], np.nan, np.inf, [0.1, np.inf]):
            for run in (frame.integrate_grid, generate_surface):
                with pytest.raises(ValueError, match="t must be"):
                    run(Untouchable(), ax, ax, t)


class TestSampledMarch:
    T_VALUES = [0.0, 0.7, 2.1]

    @pytest.mark.parametrize("kind", ["constant", "liouville", "solved"])
    def test_march_equals_rk4_step_loop_bitwise(self, family_potentials, kind):
        pot = family_potentials[kind]
        on_node = (np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 7))
        off_node = (np.linspace(-0.35, 0.45, 9), np.linspace(-0.31, 0.41, 7))
        for x, y in (on_node, off_node):
            fields = frame.integrate_grid(pot, x, y, self.T_VALUES)
            expected = reference_march(pot, x, y, self.T_VALUES)
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

    def test_outward_steps_run_in_pairs(self, monkeypatch):
        # the steps to columns i0 + k and i0 - k share a kernel call, and so
        # do those to rows j0 + k and j0 - k: one call per step of the
        # longer side
        kernel_calls = []
        kernel = frame._rk4
        monkeypatch.setattr(
            frame, "_rk4", lambda *args: kernel_calls.append(1) or kernel(*args)
        )
        for x, y in MARCH_GRIDS:
            i0, j0 = int(np.argmin(np.abs(x))), int(np.argmin(np.abs(y)))
            longer = max(i0, x.size - 1 - i0) + max(j0, y.size - 1 - j0)
            base = int(x[i0] != 0.0 or y[j0] != 0.0)
            kernel_calls.clear()
            frame.integrate_grid(UNIT_POTENTIAL, x, y, [0.1, 0.2])
            assert len(kernel_calls) == longer + base

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_paired_march_equals_rk4_step_loop_bitwise(self, family_potentials, data):
        # the base node anywhere, on or off a node, so that one side of the
        # base line (or of the base row) is longer than the other
        def axis(n, spacing):
            base = data.draw(st.integers(0, n - 1))
            shift = data.draw(st.sampled_from([0.0, 0.17, 0.4, -0.23, -0.4]))
            if (base == 0 and shift > 0.0) or (base == n - 1 and shift < 0.0):
                shift = -shift  # keep z = 0 inside the grid
            return spacing * (np.arange(n) - base + shift)

        nx = data.draw(st.integers(3, 15))
        x = axis(nx, 0.03)
        y = axis(data.draw(st.integers(3, 15).filter(lambda n: n != nx)), 0.027)
        kind = data.draw(st.sampled_from(["constant", "liouville", "solved"]))
        pot = family_potentials[kind]
        t_values = [0.0, 0.7, 2.1]
        fields = frame.integrate_grid(pot, x, y, t_values)
        expected = reference_march(pot, x, y, t_values)
        for field, triple in zip(fields, expected):
            for name, want in zip(("psi", "psi_t", "psi_tt"), triple):
                assert np.array_equal(getattr(field, name), want), name

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_boundaries_keep_the_march_bitwise(self, family_potentials, data):
        # batches of 1 entry (every step alone), of a few base-line steps
        # and ending mid-row, so that boundaries fall between chained
        # steps, between paired and one-sided steps and between the base
        # row and the rows
        x, y = data.draw(st.sampled_from(MARCH_GRIDS))
        pot = family_potentials[data.draw(st.sampled_from(sorted(family_potentials)))]
        t_values = [0.0, 0.7, 2.1][: data.draw(st.integers(1, 3))]
        members = len(t_values)
        batch = data.draw(
            st.one_of(
                st.just(1),
                st.integers(2, 6).map(lambda n: n * members),
                st.integers(0, 3).map(lambda k: (k * x.size + x.size // 2) * members),
            )
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frame, "MARCH_BATCH_ENTRIES", batch)
            fields = frame.integrate_grid(pot, x, y, t_values)
        expected = reference_march(pot, x, y, t_values)
        for field, triple in zip(fields, expected):
            for name, want in zip(("psi", "psi_t", "psi_tt"), triple):
                assert np.array_equal(getattr(field, name), want), name

    @pytest.mark.parametrize("n", [9, 33])
    @pytest.mark.parametrize("offset", [0.0, 0.03])
    @pytest.mark.parametrize("members", [1, 3, 8])
    @pytest.mark.parametrize("budget", [None, 10])
    def test_increments_are_evaluated_per_batch(
        self, monkeypatch, n, offset, members, budget
    ):
        # one _omega call per sample kind (start, midpoint, end) and batch,
        # plus three for the off-node base step; a call over the batch
        # size holds one step, and two neighbouring batches would not fit
        # in one (None: the default batch size)
        if budget is None:
            budget = frame.MARCH_BATCH_ENTRIES
        monkeypatch.setattr(frame, "MARCH_BATCH_ENTRIES", budget)
        calls = []
        omega = frame._omega

        def counted(*args):
            increments = omega(*args)
            calls.append(increments[0][0].size)  # T x nodes
            return increments

        monkeypatch.setattr(frame, "_omega", counted)
        ax = np.linspace(-0.4, 0.4, n) + offset
        frame.integrate_grid(UNIT_POTENTIAL, ax, ax, np.linspace(0.1, 1.0, members))
        if offset:
            assert calls[:3] == [members] * 3
            del calls[:3]
        batches = calls[::3]
        assert calls == [size for size in batches for _ in range(3)]
        assert sum(batches) == members * (n * n - 1)
        # one or a pair of nodes on the base line, or of rows
        one_step = (members, 2 * members, n * members, 2 * n * members)
        assert all(size <= budget or size in one_step for size in batches)
        assert all(a + b > budget for a, b in zip(batches, batches[1:]))
        if members * (n * n - 1) <= budget:
            assert len(batches) == 1

    @pytest.mark.parametrize("kind", ["constant", "liouville", "solved"])
    @pytest.mark.parametrize("path_order", ["row-major", "column-major"])
    @pytest.mark.parametrize("substeps", [1, 2])
    def test_row_1_is_the_conjugate_swap_of_row_0(
        self, family_potentials, kind, path_order, substeps
    ):
        # the triple lives in SU(1,1): [[a, b], [conj(b), conj(a)]], both in
        # the row march and in the full-state reference march, on every
        # path and step count the reference takes
        pot = family_potentials[kind]
        on_node = (np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 7))
        off_node = (np.linspace(-0.35, 0.45, 9), np.linspace(-0.31, 0.41, 7))
        for x, y in (on_node, off_node):
            fields = frame.integrate_grid(pot, x, y, self.T_VALUES)
            expected = reference_march(pot, x, y, self.T_VALUES, path_order, substeps)
            for field, triple in zip(fields, expected):
                marched = (field.psi, field.psi_t, field.psi_tt)
                for m in marched + tuple(triple):
                    assert np.array_equal(m[..., 1, 1], np.conj(m[..., 0, 0]))
                    assert np.array_equal(m[..., 1, 0], np.conj(m[..., 0, 1]))

    def test_march_hands_the_kernel_row_states(self, monkeypatch):
        # (triple, column, t, node): only row 0 is marched, the off-node
        # base step included
        shapes = []
        kernel = frame._rk4
        monkeypatch.setattr(
            frame,
            "_rk4",
            lambda state, *args: shapes.append(state.shape) or kernel(state, *args),
        )
        centred = (np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 7))
        off_node = (np.linspace(-0.35, 0.45, 9), np.linspace(-0.31, 0.41, 7))
        for (x, y), base in ((centred, []), (off_node, [(3, 2, 3, 1)])):
            shapes.clear()
            frame.integrate_grid(UNIT_POTENTIAL, x, y, [0.1, 0.2, 0.3])
            assert shapes[: len(base)] == base
            assert shapes and all(len(s) == 4 and s[:3] == (3, 2, 3) for s in shapes)
            # pairs of nodes along the base line, then pairs of whole rows
            assert {s[3] for s in shapes} <= {1, 2, 9, 18}
            assert {2, 18} <= {s[3] for s in shapes}

    @pytest.mark.parametrize("factor", [1.0 + 0.0j, np.exp(0.1j)])
    def test_complex_root_fails_before_marching(self, monkeypatch, factor):
        # the row march rests on a real sqrt(rho0); a source that returns a
        # complex array is refused, even when its values are real
        class ComplexRoot:
            """UNIT_POTENTIAL with rho0 as a complex array."""

            def __getattr__(self, name):
                return getattr(UNIT_POTENTIAL, name)

            def rho0(self, z):
                return UNIT_POTENTIAL.rho0(z) * factor

        kernel_calls = []
        kernel = frame._rk4
        monkeypatch.setattr(
            frame, "_rk4", lambda *args: kernel_calls.append(1) or kernel(*args)
        )
        for ax in (np.linspace(-0.4, 0.4, 9), np.linspace(-0.35, 0.45, 9)):
            with pytest.raises(DomainError, match="not real"):
                frame.integrate_grid(ComplexRoot(), ax, ax, [0.1, 0.2])
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

"""Tests for the exact Heisenberg-space geometry kernel.

The core checks mirror the verification contract for the ambient geometry:
at a batch of random points the canonical frame must be orthonormal to
machine precision, left translation must map the frame at q to the frame at
L_p(q), and the connection table must be metric-compatible and torsion-free
against hand-derived Lie brackets.
"""

import numpy as np
import pytest

from nilsurf import nil3
from nilsurf.errors import PoleError


def random_points(n, seed, scale=5.0):
    rng = np.random.default_rng(seed)
    return scale * rng.uniform(-1.0, 1.0, size=(n, 3))


def dyadic_points(n, seed):
    """Random points with dyadic-rational coordinates k/16, |k| <= 64.

    Products and sums of such values are exactly representable, so group
    identities that hold algebraically must hold bitwise.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(-64, 65, size=(n, 3)) / 16.0


class TestMetric:
    def test_worked_example(self):
        p = np.array([1.0, 2.0, 3.0])
        e1 = np.array([1.0, 0.0, 0.0])
        # theta(e1) = x2/2 = 1 at p, so |e1|^2 = 1 + theta^2 = 2
        assert nil3.metric_at(p, e1, e1) == 2.0
        assert nil3.vertical_form(p, e1) == 1.0

    def test_vertical_form_at_origin_is_third_component(self):
        u = np.array([0.3, -0.7, 1.9])
        assert nil3.vertical_form(np.zeros(3), u) == 1.9

    def test_metric_is_euclidean_at_origin(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(10, 3))
        v = rng.normal(size=(10, 3))
        zero = np.zeros(3)
        np.testing.assert_array_equal(
            nil3.metric_at(zero, u, v),
            u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2],
        )

    def test_metric_extends_bilinearly_to_complex_vectors(self):
        p = np.array([0.5, -1.0, 2.0])
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.0, 1.0, 3.0])
        lhs = nil3.metric_at(p, u + 1j * v, u + 1j * v)
        rhs = (
            nil3.metric_at(p, u, u)
            - nil3.metric_at(p, v, v)
            + 2j * nil3.metric_at(p, u, v)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


class TestFrame:
    def test_frame_is_orthonormal_exactly(self):
        # The vertical form evaluated on E1 and E2 cancels term by term,
        # so orthonormality holds to the last bit, not just to rounding.
        p = random_points(100, seed=1)
        frames = nil3.frame_at(p)
        for i in range(3):
            for j in range(3):
                got = nil3.metric_at(p, frames[:, i], frames[:, j])
                np.testing.assert_array_equal(got, float(i == j))

    def test_frame_coefficient_round_trip(self):
        p = random_points(50, seed=2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        a = nil3.frame_coeffs_from_coords(p, u)
        back = nil3.coords_from_frame_coeffs(p, a)
        np.testing.assert_allclose(back, u, rtol=1e-14, atol=1e-14)
        # frame coefficients of the frame itself are the standard basis
        coeffs = nil3.frame_coeffs_from_coords(
            p[:, None, :], nil3.frame_at(p)
        )
        np.testing.assert_array_equal(
            coeffs, np.broadcast_to(np.eye(3), (50, 3, 3))
        )

    def test_norms_are_euclidean_in_frame_coefficients(self):
        p = random_points(50, seed=4)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(50, 3))
        a = nil3.frame_coeffs_from_coords(p, u)
        np.testing.assert_allclose(
            nil3.metric_at(p, u, u),
            np.einsum("ij,ij->i", a, a),
            rtol=1e-13,
            atol=1e-13,
        )


class TestGroup:
    def test_associativity_exact_on_dyadic_points(self):
        p = dyadic_points(100, seed=6)
        q = dyadic_points(100, seed=7)
        r = dyadic_points(100, seed=8)
        left = nil3.group_mul(nil3.group_mul(p, q), r)
        right = nil3.group_mul(p, nil3.group_mul(q, r))
        np.testing.assert_array_equal(left, right)

    def test_identity_and_inverse(self):
        p = random_points(100, seed=9)
        zero = np.zeros(3)
        np.testing.assert_array_equal(nil3.group_mul(p, zero), p)
        np.testing.assert_array_equal(nil3.group_mul(zero, p), p)
        # p * p^{-1} cancels exactly: the central correction is a
        # difference of identical products
        np.testing.assert_array_equal(
            nil3.group_mul(p, nil3.group_inv(p)), np.zeros_like(p)
        )

    def test_noncommutativity_shows_in_center(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(nil3.group_mul(p, q), [1.0, 1.0, 0.5])
        np.testing.assert_array_equal(nil3.group_mul(q, p), [1.0, 1.0, -0.5])

    def test_left_translation_maps_frame_to_frame_bitwise(self):
        p = random_points(100, seed=10)
        q = random_points(100, seed=11)
        moved = nil3.left_translation_differential(
            p[:, None, :], nil3.frame_at(q)
        )
        np.testing.assert_array_equal(
            moved, nil3.frame_at(nil3.group_mul(p, q))
        )

    def test_left_translation_preserves_metric(self):
        p = random_points(50, seed=12)
        q = random_points(50, seed=13)
        rng = np.random.default_rng(14)
        u = rng.normal(size=(50, 3))
        v = rng.normal(size=(50, 3))
        np.testing.assert_allclose(
            nil3.metric_at(
                nil3.group_mul(p, q),
                nil3.left_translation_differential(p, u),
                nil3.left_translation_differential(p, v),
            ),
            nil3.metric_at(q, u, v),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_horizontal_projection_is_homomorphism(self):
        p = random_points(50, seed=15)
        q = random_points(50, seed=16)
        np.testing.assert_array_equal(
            nil3.project_horizontal(nil3.group_mul(p, q)),
            nil3.project_horizontal(p) + nil3.project_horizontal(q),
        )


class TestConnection:
    def test_table_nonzeros(self):
        np.testing.assert_array_equal(nil3.gamma(1, 2), [0.0, 0.0, 0.5])
        np.testing.assert_array_equal(nil3.gamma(1, 3), [0.0, -0.5, 0.0])
        np.testing.assert_array_equal(nil3.gamma(2, 1), [0.0, 0.0, -0.5])
        np.testing.assert_array_equal(nil3.gamma(2, 3), [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(nil3.gamma(3, 1), [0.0, -0.5, 0.0])
        np.testing.assert_array_equal(nil3.gamma(3, 2), [0.5, 0.0, 0.0])
        for i in range(1, 4):
            np.testing.assert_array_equal(nil3.gamma(i, i), np.zeros(3))

    def test_gamma_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            nil3.gamma(0, 1)
        with pytest.raises(ValueError):
            nil3.gamma(1, 4)

    def test_metric_compatibility_antisymmetry(self):
        # <nabla_Ei Ej, Ek> + <Ej, nabla_Ei Ek> = 0 for an orthonormal frame
        table = nil3.CONNECTION_TABLE
        np.testing.assert_array_equal(table + table.transpose(0, 2, 1), 0.0)

    def test_torsion_free_against_lie_brackets(self):
        # Hand-derived brackets of the canonical frame:
        # [E1, E2] = E3, [E1, E3] = [E2, E3] = 0.
        brackets = np.zeros((3, 3, 3))
        brackets[0, 1, 2] = 1.0
        brackets[1, 0, 2] = -1.0
        table = nil3.CONNECTION_TABLE
        np.testing.assert_array_equal(
            table - table.transpose(1, 0, 2), brackets
        )

    def test_covariant_derivative_reduces_to_table(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=3)
        zero = np.zeros(3)
        for j in range(3):
            w = np.eye(3)[j]
            expected = sum(
                a[i] * nil3.CONNECTION_TABLE[i, j] for i in range(3)
            )
            np.testing.assert_allclose(
                nil3.covariant_derivative(a, w, zero), expected, atol=1e-15
            )

    def test_covariant_derivative_matches_the_table_contraction(self):
        # the six-term form against the full contraction over the table
        rng = np.random.default_rng(23)

        def field(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for a_shape, w_shape in (((5, 6, 3), (5, 6, 3)), ((3,), (4, 5, 3))):
            a, w, dw = field(a_shape), field(w_shape), field(w_shape)
            expected = dw + np.einsum(
                "...i,...j,ijk->...k", a, w, nil3.CONNECTION_TABLE
            )
            got = nil3.covariant_derivative(a, w, dw)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(
                np.abs(expected)
            )

    def test_covariant_derivative_flat_term(self):
        # With a zero connection contribution (w = E3-direction along E3
        # is nonzero, so use w = 0) the derivative is just dw.
        dw = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            nil3.covariant_derivative(np.ones(3), np.zeros(3), dw), dw
        )


class TestStereographic:
    def test_north_pole_maps_to_zero(self):
        assert nil3.stereographic_south(np.array([0.0, 0.0, 1.0])) == 0.0

    def test_equator_maps_to_unit_circle(self):
        assert nil3.stereographic_south(np.array([1.0, 0.0, 0.0])) == 1.0
        assert nil3.stereographic_south(np.array([0.0, 1.0, 0.0])) == 1j

    def test_upper_hemisphere_lands_in_unit_disk(self):
        rng = np.random.default_rng(18)
        raw = rng.normal(size=(200, 3))
        n = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        n[:, 2] = np.abs(n[:, 2])
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        g = nil3.stereographic_south(n)
        assert np.all(np.abs(g) <= 1.0 + 1e-12)

    def test_south_pole_raises(self):
        with pytest.raises(PoleError):
            nil3.stereographic_south(np.array([0.0, 0.0, -1.0]))

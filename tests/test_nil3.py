"""Tests for the Heisenberg-space geometry: the program's kernel and the model.

`nilsurf.nil3` holds the vertical form, the covariant derivative and the
stereographic chart; `nil3_model` holds the point model they are checked
against.  At a batch of random points the canonical frame must be
orthonormal to machine precision, left translation must map the frame at
q to the frame at L_p(q), and the connection table must be
metric-compatible and torsion-free against hand-derived Lie brackets.
"""

import warnings

import numpy as np

import nil3_model as model
from nil3_model import planes, stack
from nilsurf import nil3


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


def covariant_derivative(a, w, dw):
    """nil3.covariant_derivative on (..., 3) arrays, stacked back."""
    return stack(nil3.covariant_derivative(planes(a), planes(w), planes(dw)))


class TestMetric:
    def test_worked_example(self):
        p = np.array([1.0, 2.0, 3.0])
        e1 = np.array([1.0, 0.0, 0.0])
        # theta(e1) = x2/2 = 1 at p, so |e1|^2 = 1 + theta^2 = 2
        assert model.metric_at(p, e1, e1) == 2.0
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
            model.metric_at(zero, u, v),
            u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2],
        )

    def test_metric_extends_bilinearly_to_complex_vectors(self):
        p = np.array([0.5, -1.0, 2.0])
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.0, 1.0, 3.0])
        lhs = model.metric_at(p, u + 1j * v, u + 1j * v)
        rhs = (
            model.metric_at(p, u, u)
            - model.metric_at(p, v, v)
            + 2j * model.metric_at(p, u, v)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


class TestFrame:
    def test_frame_is_orthonormal_exactly(self):
        # The vertical form evaluated on E1 and E2 cancels term by term,
        # so orthonormality holds to the last bit, not just to rounding.
        p = random_points(100, seed=1)
        frames = model.frame_at(p)
        for i in range(3):
            for j in range(3):
                got = model.metric_at(p, frames[:, i], frames[:, j])
                np.testing.assert_array_equal(got, float(i == j))

    def test_frame_coefficient_round_trip(self):
        # the frame coefficients (u1, u2, theta(u)) recombine the frame
        # rows into u
        p = random_points(50, seed=2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        a = stack((u[:, 0], u[:, 1], nil3.vertical_form(planes(p), planes(u))))
        back = np.einsum("ni,nij->nj", a, model.frame_at(p))
        np.testing.assert_allclose(back, u, rtol=1e-14, atol=1e-14)
        # frame coefficients of the frame itself are the standard basis
        frames = model.frame_at(p)
        for j in range(3):
            coeffs = stack(
                (
                    frames[:, j, 0],
                    frames[:, j, 1],
                    nil3.vertical_form(planes(p), planes(frames[:, j])),
                )
            )
            np.testing.assert_array_equal(
                coeffs, np.broadcast_to(np.eye(3)[j], (50, 3))
            )

    def test_norms_are_euclidean_in_frame_coefficients(self):
        # coefficients solved from the frame rows: their Euclidean norm is
        # the metric norm, and the third is the vertical form
        p = random_points(50, seed=4)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(50, 3))
        a = np.linalg.solve(
            model.frame_at(p).transpose(0, 2, 1), u[..., None]
        )[..., 0]
        np.testing.assert_allclose(
            model.metric_at(p, u, u),
            np.einsum("ij,ij->i", a, a),
            rtol=1e-13,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            a[:, 2], nil3.vertical_form(planes(p), planes(u)),
            rtol=1e-13, atol=1e-13,
        )


class TestGroup:
    def test_associativity_exact_on_dyadic_points(self):
        p = dyadic_points(100, seed=6)
        q = dyadic_points(100, seed=7)
        r = dyadic_points(100, seed=8)
        left = model.group_mul(model.group_mul(p, q), r)
        right = model.group_mul(p, model.group_mul(q, r))
        np.testing.assert_array_equal(left, right)

    def test_identity_and_inverse(self):
        p = random_points(100, seed=9)
        zero = np.zeros(3)
        np.testing.assert_array_equal(model.group_mul(p, zero), p)
        np.testing.assert_array_equal(model.group_mul(zero, p), p)
        # the inverse is -p: the central correction of p * (-p) is a
        # difference of identical products and cancels exactly
        np.testing.assert_array_equal(model.group_mul(p, -p), np.zeros_like(p))

    def test_noncommutativity_shows_in_center(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(model.group_mul(p, q), [1.0, 1.0, 0.5])
        np.testing.assert_array_equal(model.group_mul(q, p), [1.0, 1.0, -0.5])

    def test_left_translation_maps_frame_to_frame_bitwise(self):
        p = random_points(100, seed=10)
        q = random_points(100, seed=11)
        moved = model.left_translation_differential(
            p[:, None, :], model.frame_at(q)
        )
        np.testing.assert_array_equal(
            moved, model.frame_at(model.group_mul(p, q))
        )

    def test_horizontal_projection_is_homomorphism(self):
        # (x1, x2) of a product is the sum of the factors' (x1, x2)
        p = random_points(50, seed=15)
        q = random_points(50, seed=16)
        np.testing.assert_array_equal(
            model.group_mul(p, q)[:, :2], p[:, :2] + q[:, :2]
        )

    def test_left_translation_preserves_metric(self):
        p = random_points(50, seed=12)
        q = random_points(50, seed=13)
        rng = np.random.default_rng(14)
        u = rng.normal(size=(50, 3))
        v = rng.normal(size=(50, 3))
        np.testing.assert_allclose(
            model.metric_at(
                model.group_mul(p, q),
                model.left_translation_differential(p, u),
                model.left_translation_differential(p, v),
            ),
            model.metric_at(q, u, v),
            rtol=1e-12,
            atol=1e-12,
        )


class TestConnection:
    def test_table_nonzeros(self):
        table = model.CONNECTION_TABLE
        np.testing.assert_array_equal(table[0, 1], [0.0, 0.0, 0.5])
        np.testing.assert_array_equal(table[0, 2], [0.0, -0.5, 0.0])
        np.testing.assert_array_equal(table[1, 0], [0.0, 0.0, -0.5])
        np.testing.assert_array_equal(table[1, 2], [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(table[2, 0], [0.0, -0.5, 0.0])
        np.testing.assert_array_equal(table[2, 1], [0.5, 0.0, 0.0])
        for i in range(3):
            np.testing.assert_array_equal(table[i, i], np.zeros(3))

    def test_metric_compatibility_antisymmetry(self):
        # <nabla_Ei Ej, Ek> + <Ej, nabla_Ei Ek> = 0 for an orthonormal frame
        table = model.CONNECTION_TABLE
        np.testing.assert_array_equal(table + table.transpose(0, 2, 1), 0.0)

    def test_torsion_free_against_lie_brackets(self):
        # Hand-derived brackets of the canonical frame:
        # [E1, E2] = E3, [E1, E3] = [E2, E3] = 0.
        brackets = np.zeros((3, 3, 3))
        brackets[0, 1, 2] = 1.0
        brackets[1, 0, 2] = -1.0
        table = model.CONNECTION_TABLE
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
                a[i] * model.CONNECTION_TABLE[i, j] for i in range(3)
            )
            np.testing.assert_allclose(
                covariant_derivative(a, w, zero), expected, atol=1e-15
            )

    def test_covariant_derivative_matches_the_table_contraction(self):
        # the six-term form against the full contraction over the table
        rng = np.random.default_rng(23)

        def field(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for a_shape, w_shape in (((5, 6, 3), (5, 6, 3)), ((3,), (4, 5, 3))):
            a, w, dw = field(a_shape), field(w_shape), field(w_shape)
            expected = dw + np.einsum(
                "...i,...j,ijk->...k", a, w, model.CONNECTION_TABLE
            )
            got = covariant_derivative(a, w, dw)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(
                np.abs(expected)
            )

    def test_covariant_derivative_flat_term(self):
        # with w = 0 the connection term vanishes and the derivative is dw
        dw = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            covariant_derivative(np.ones(3), np.zeros(3), dw), dw
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
        g = nil3.stereographic_south(planes(n))
        assert g.shape == (200,)
        assert np.all(np.abs(g) <= 1.0 + 1e-12)

    def test_south_pole_gives_nan(self):
        # the residual suite masks the pole node instead of failing there;
        # the one pole in a plane leaves its neighbours' values alone
        n = planes([[0.0, 0.0, -1.0], [0.6, 0.0, 0.8], [np.nan, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = nil3.stereographic_south(np.array([0.0, 0.0, -1.0]))
            g = nil3.stereographic_south(n)
        assert np.isnan(single.real) and np.isnan(single.imag)
        assert np.isnan(g[0].real) and np.isnan(g[0].imag)
        assert g[1] == 0.6 / 1.8
        assert np.isnan(g[2].real)

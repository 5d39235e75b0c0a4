"""Tests for the batched 2x2 matrix helpers and the point matrix model."""

import numpy as np
import pytest

from nilsurf import mat2
from nilsurf.errors import ShapeViolation, SingularFrameError


def test_basis_constants():
    np.testing.assert_array_equal(
        mat2.DIAG_IMAG, np.array([[1j, 0], [0, -1j]])
    )
    np.testing.assert_array_equal(mat2.DIAG_IMAG @ mat2.DIAG_IMAG, -np.eye(2))
    np.testing.assert_array_equal(mat2.BASIS_X3, np.eye(2))
    # the three coordinate basis matrices are Hermitian
    for basis in (mat2.BASIS_X1, mat2.BASIS_X2, mat2.BASIS_X3):
        np.testing.assert_array_equal(basis, np.conj(basis.T))


def test_point_matrix_example():
    m = np.array([[3.0, 1.0 + 2.0j], [1.0 - 2.0j, 3.0]])
    np.testing.assert_array_equal(mat2.matrix_to_point(m), [1.0, 2.0, 3.0])


def test_zero_matrix_is_origin():
    np.testing.assert_array_equal(
        mat2.matrix_to_point(np.zeros((2, 2), dtype=complex)), [0.0, 0.0, 0.0]
    )


def test_imaginary_diagonal_rejected():
    with pytest.raises(ShapeViolation):
        mat2.matrix_to_point(np.array([[1j, 0.0], [0.0, -1j]]))


def test_point_matrix_round_trip_batched():
    rng = np.random.default_rng(7)
    p = rng.normal(size=(4, 5, 3))
    m = mat2.point_to_matrix(p)
    assert m.shape == (4, 5, 2, 2)
    np.testing.assert_array_equal(mat2.matrix_shape_deviation(m), 0.0)
    np.testing.assert_array_equal(mat2.matrix_to_point(m), p)
    # the embedding is the linear combination of the basis matrices
    expected = (
        p[..., 0, None, None] * mat2.BASIS_X1
        + p[..., 1, None, None] * mat2.BASIS_X2
        + p[..., 2, None, None] * mat2.BASIS_X3
    )
    np.testing.assert_array_equal(m, expected)


def test_shape_deviation_measures_each_defect():
    good = mat2.point_to_matrix(np.array([1.0, 2.0, 3.0]))
    for row, col, bump in [(0, 0, 1e-3), (0, 1, 1e-3j)]:
        bad = good.copy()
        bad[row, col] += bump
        assert mat2.matrix_shape_deviation(bad) >= 1e-3 / 2
        with pytest.raises(ShapeViolation):
            mat2.matrix_to_point(bad, tol=1e-6)


def test_det_and_inv_batched():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    np.testing.assert_allclose(mat2.det(m), np.linalg.det(m), rtol=1e-12)
    inv = mat2.inv(m)
    np.testing.assert_allclose(
        inv @ m, np.broadcast_to(np.eye(2), (6, 2, 2)), atol=1e-12
    )


def test_inv_singular_raises():
    with pytest.raises(SingularFrameError):
        mat2.inv(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inv_refuses_a_determinant_that_is_not_finite(bad):
    # |nan| < tol is false: a NaN determinant used to pass the gate
    m = np.array([np.eye(2), [[bad, 0.0], [0.0, 1.0]]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(
        SingularFrameError, match="not finite"
    ):
        mat2.inv(m)


def test_matrix_to_point_refuses_a_nan_deviation():
    m = mat2.point_to_matrix(np.zeros((3, 3)))
    m[1, 0, 1] = np.nan
    with np.errstate(all="ignore"), pytest.raises(
        ShapeViolation, match="not finite"
    ):
        mat2.matrix_to_point(m)


def test_commutator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    expected = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    np.testing.assert_array_equal(mat2.commutator(a, b), expected)
    np.testing.assert_array_equal(
        mat2.commutator(b, a), -mat2.commutator(a, b)
    )


def random_stack(rng, shape):
    """Random complex 2x2 matrices of shape (*shape, 2, 2)."""
    shape = shape + (2, 2)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def assert_close_relative(actual, expected, rtol=1e-14):
    """Max-norm error within rtol of the largest expected magnitude."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def test_entries_round_trip():
    m = random_stack(np.random.default_rng(3), (4, 5))
    np.testing.assert_array_equal(mat2.from_entries(mat2.entries(m)), m)
    # scalar entries broadcast against arrays
    out = mat2.from_entries((1.0, np.arange(3.0), 0.0, 2j))
    assert out.shape == (3, 2, 2)
    np.testing.assert_array_equal(out[:, 0, 1], np.arange(3.0))


def test_entry_wise_products_match_matmul():
    rng = np.random.default_rng(5)
    a = random_stack(rng, (6, 7))
    b = random_stack(rng, (6, 7))
    assert_close_relative(
        mat2.from_entries(mat2.mul(mat2.entries(a), mat2.entries(b))), a @ b
    )
    assert_close_relative(
        mat2.from_entries(mat2.times_s(mat2.entries(a))), a @ mat2.DIAG_IMAG
    )


def test_entry_wise_commutator_matches_matmul():
    rng = np.random.default_rng(9)
    a = random_stack(rng, (6, 7))
    b = random_stack(rng, (6, 7))
    c = mat2.commutator(a, b)
    assert_close_relative(c, a @ b - b @ a)
    np.testing.assert_array_equal(c[..., 0, 0], -c[..., 1, 1])
    # broadcasting: one matrix against a stack
    assert_close_relative(mat2.commutator(a[0, 0], b), a[0, 0] @ b - b @ a[0, 0])

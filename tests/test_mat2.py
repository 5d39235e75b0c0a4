"""Tests for the batched 2x2 matrix helpers and the point matrix model."""

import numpy as np
import pytest

from nilsurf import frame, mat2, surface
from nilsurf.errors import SingularFrameError


def test_basis_constants():
    np.testing.assert_array_equal(
        mat2.DIAG_IMAG, np.array([[1j, 0], [0, -1j]])
    )
    np.testing.assert_array_equal(mat2.DIAG_IMAG @ mat2.DIAG_IMAG, -np.eye(2))



def one_node_surface(w, ds):
    """surface_from_frame on a one-node triple with fhat = offdiag(w) and
    diag d(fhat)/dt = (i ds, -i ds), i.e. immersion matrix
    [[ds / 2, w], [conj(w), ds / 2]].

    With psi = I the product rule gives fhat = -2 K + 2 S for psi_t = K,
    and psi_tt = M is solved for the wanted d(fhat)/dt.
    """
    s = mat2.DIAG_IMAG
    fhat = np.array([[0.0, w], [np.conj(w), 0.0]])
    dfhat = np.array([[1j * ds, 0.0], [0.0, -1j * ds]])
    k = s - fhat / 2
    m = (-2 * s @ k + 2 * k @ k + 2 * k @ s - dfhat) / 2
    # I, K and M are [[a, b], [conj(b), conj(a)]]: the field holds their
    # first rows
    field = frame.FrameField(
        x=np.zeros(1), y=np.zeros(1), t=0.0,
        row=np.array([[1.0, 0.0], k[0], m[0]])[:, :, None, None],
    )
    for built, want in zip((field.psi, field.psi_t, field.psi_tt), (np.eye(2), k, m)):
        np.testing.assert_allclose(built[0, 0], want, rtol=0.0, atol=1e-15)
    return surface.surface_from_frame(field)


def test_point_matrix_example():
    # the immersion matrix [[3, 1 + 2i], [1 - 2i, 3]] is the point (1, 2, 3)
    surf = one_node_surface(1.0 + 2.0j, 6.0)
    np.testing.assert_allclose(surf.coords(), [[[1.0, 2.0, 3.0]]], atol=1e-14)


def test_zero_matrix_is_origin():
    # the identity frame with vanishing t-derivatives has fhat = 2 S and
    # immersion matrix 0, decoded exactly as the origin
    row = np.zeros((3, 2, 1, 1), dtype=complex)
    row[0, 0] = 1.0
    field = frame.FrameField(x=np.zeros(1), y=np.zeros(1), t=0.0, row=row)
    np.testing.assert_array_equal(field.psi, np.eye(2)[None, None])
    surf = surface.surface_from_frame(field)
    np.testing.assert_array_equal(surf.coords(), [[[0.0, 0.0, 0.0]]])
    assert surf.shape_deviation == 0.0
    np.testing.assert_array_equal(one_node_surface(0.0, 0.0).coords(), 0.0)


def test_det_and_inv_batched():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    np.testing.assert_allclose(
        mat2.det(mat2.entries(m)), np.linalg.det(m), rtol=1e-12
    )
    inv = mat2.from_entries(mat2.inv(mat2.entries(m)))
    np.testing.assert_allclose(
        inv @ m, np.broadcast_to(np.eye(2), (6, 2, 2)), atol=1e-12
    )


def test_inv_singular_raises():
    with pytest.raises(SingularFrameError):
        mat2.inv((1.0, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inv_refuses_a_determinant_that_is_not_finite(bad):
    # |nan| < tol is false: a NaN determinant used to pass the gate
    m = np.array([np.eye(2), [[bad, 0.0], [0.0, 1.0]]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(
        SingularFrameError, match="not finite"
    ):
        mat2.inv(mat2.entries(m))


def commutator(a, b):
    """mat2.commutator_entries on (..., 2, 2) fields."""
    return mat2.from_entries(
        mat2.commutator_entries(mat2.entries(a), mat2.entries(b))
    )


def test_commutator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    expected = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    np.testing.assert_array_equal(commutator(a, b), expected)
    np.testing.assert_array_equal(commutator(b, a), -commutator(a, b))


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
    product = a @ b
    assert_close_relative(
        np.stack(mat2.mul_diagonal(mat2.entries(a), mat2.entries(b))),
        np.stack((product[..., 0, 0], product[..., 1, 1])),
    )


def test_entry_wise_commutator_matches_matmul():
    rng = np.random.default_rng(9)
    a = random_stack(rng, (6, 7))
    b = random_stack(rng, (6, 7))
    c = commutator(a, b)
    assert_close_relative(c, a @ b - b @ a)
    np.testing.assert_array_equal(c[..., 0, 0], -c[..., 1, 1])
    # broadcasting: one matrix against a stack
    assert_close_relative(commutator(a[0, 0], b), a[0, 0] @ b - b @ a[0, 0])

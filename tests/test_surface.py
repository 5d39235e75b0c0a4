"""Tests for the immersion-formula assembly of surfaces from frames."""

import tracemalloc

import numpy as np
import pytest

from nilsurf import frame, mat2, surface
from nilsurf.errors import ShapeViolation, SingularFrameError
from nilsurf.potentials import Potential
from nilsurf.stencils import row_blocks

UNIT_POTENTIAL = Potential.constant(1.0, (0.25,))
AXES = np.linspace(-0.4, 0.4, 9)


def fhat_of(psi, psi_t):
    """fhat = -2 psi_t psi^-1 + 2 psi S psi^-1, from the assembly's entries."""
    psi = np.asarray(psi, dtype=complex)
    fhat, _ = surface._assemble(
        *(mat2.entries(m) for m in (psi, psi_t, np.zeros_like(psi)))
    )
    return mat2.from_entries(fhat)


class TestMatrixAlgebra:
    def test_fhat_at_identity_frame(self):
        fhat = fhat_of(np.eye(2, dtype=complex), np.zeros((2, 2)))
        np.testing.assert_array_equal(fhat, 2.0 * mat2.DIAG_IMAG)

    def test_fhat_hand_value(self):
        psi = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
        psi_t = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_array_equal(
            fhat_of(psi, psi_t),
            np.array([[2j, -4.0], [0.0, -2j]]),
        )

    def test_dfhat_dt_matches_finite_difference_of_fhat(self):
        # independent check of the product-rule expansion of the diagonal
        # of d(fhat)/dt, the part the immersion formula reads: move the
        # frame along a synthetic t-line psi(t) = psi0 @ expm(t K)
        from scipy.linalg import expm

        rng = np.random.default_rng(41)
        psi0 = np.eye(2) + 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

        def triple(t):
            e = expm(t * k)
            psi = psi0 @ e
            return psi, psi @ k, psi @ k @ k

        d = 1e-5
        psi, psi_t, psi_tt = triple(0.2)
        _, got = surface._assemble(*(mat2.entries(m) for m in (psi, psi_t, psi_tt)))
        hi = fhat_of(*triple(0.2 + d)[:2])
        lo = fhat_of(*triple(0.2 - d)[:2])
        fd = (hi - lo) / (2 * d)
        np.testing.assert_allclose(got, (fd[0, 0], fd[1, 1]), atol=1e-8)

    def test_entry_wise_assembly_matches_dense_products(self):
        # reference: the defining formulas with generic @ on (n, 2, 2) stacks
        rng = np.random.default_rng(7)
        psi, psi_t, psi_tt = (
            np.eye(2)
            + 0.3 * (rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)))
            for _ in range(3)
        )
        s = mat2.DIAG_IMAG
        pinv = np.linalg.inv(psi)
        a = psi_t @ pinv
        fhat = -2.0 * a + 2.0 * (psi @ s @ pinv)
        dfhat = (
            -2.0 * (psi_tt @ pinv)
            + 2.0 * (a @ a)
            + 2.0 * (psi_t @ s @ pinv)
            - 2.0 * (psi @ s @ pinv @ a)
        )
        np.testing.assert_allclose(
            fhat_of(psi, psi_t), fhat, rtol=0.0, atol=1e-13
        )
        fhat_entries, diagonal = surface._assemble(
            *(mat2.entries(m) for m in (psi, psi_t, psi_tt))
        )
        np.testing.assert_allclose(
            mat2.from_entries(fhat_entries), fhat, rtol=0.0, atol=1e-13
        )
        np.testing.assert_allclose(
            diagonal, (dfhat[:, 0, 0], dfhat[:, 1, 1]), rtol=0.0, atol=1e-13
        )

    def test_ft_extracts_vertical_from_dfhat_and_horizontal_from_fhat(self):
        # a one-node frame triple built so that fhat = [[i s, w], [conj w,
        # -i s]] and diag d(fhat)/dt = (i ds, -i ds): with psi = I,
        # fhat = -2 K + 2 S for psi_t = K, and psi_tt = M solves the
        # product rule for the wanted d(fhat)/dt.  I, K and M are
        # [[a, b], [conj(b), conj(a)]], so the field holds their first rows
        s, w, ds, dw = 3.0, 1.0 + 2.0j, 4.0, 9.0
        S = mat2.DIAG_IMAG
        fhat = np.array([[1j * s, w], [np.conj(w), -1j * s]])
        dfhat = np.array([[1j * ds, dw], [np.conj(dw), -1j * ds]])
        k = S - fhat / 2
        m = (-2 * S @ k + 2 * k @ k + 2 * k @ S - dfhat) / 2
        field = frame.FrameField(
            x=np.zeros(1), y=np.zeros(1), t=0.0,
            row=np.array([[1.0, 0.0], k[0], m[0]])[:, :, None, None],
        )
        np.testing.assert_allclose(field.psi_t[0, 0], k, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(field.psi_tt[0, 0], m, rtol=0.0, atol=1e-15)
        surf = surface.surface_from_frame(field)
        np.testing.assert_allclose(surf.F, [[w]], atol=1e-15)
        np.testing.assert_allclose(surf.height, [[ds / 2]], atol=1e-14)
        np.testing.assert_allclose(surf.aux_height, [[s]], atol=1e-15)
        np.testing.assert_allclose(surf.fhat, fhat[None, None], atol=1e-15)
        assert surf.shape_deviation < 1e-14


class TestGeneratedSurface:
    def test_base_point_is_pinned(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3)
        assert surf.F[4, 4] == 0.0
        assert surf.height[4, 4] == 0.0
        assert surf.aux_height[4, 4] == 2.0
        assert surf.t == 0.3

    def test_shape_and_determinant_deviations_are_tiny(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.0)
        assert surf.shape_deviation < 1e-7
        assert surf.det_deviation < 1e-8

    def test_grid_properties(self):
        surf = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.0)
        hx, hy = surf.x[1] - surf.x[0], surf.y[1] - surf.y[0]
        assert hx == pytest.approx(0.1)
        assert hy == pytest.approx(0.1)
        pts = surf.coords()
        assert pts.shape == (9, 9, 3)
        np.testing.assert_array_equal(pts[..., 0] + 1j * pts[..., 1], surf.F)
        np.testing.assert_array_equal(pts[..., 2], surf.height)

    def test_height_is_half_the_aux_height_rate(self):
        # the vertical coordinate must equal half the t-derivative of the
        # companion height; check against centered differences in t
        d = 1e-3
        mid = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3)
        hi = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3 + d)
        lo = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, 0.3 - d)
        fd = (hi.aux_height - lo.aux_height) / (2 * d)
        assert np.max(np.abs(mid.height - 0.5 * fd)) < 1e-6

    def test_family_is_pi_periodic(self):
        a, b = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, (0.4, 0.4 + np.pi))
        assert np.max(np.abs(a.F - b.F)) < 1e-12
        assert np.max(np.abs(a.height - b.height)) < 1e-12

    def test_family_call_orders_and_tags_members(self):
        t_values = (0.0, 0.25, 0.5)
        members = surface.generate_surface(UNIT_POTENTIAL, AXES, AXES, t_values)
        assert [m.t for m in members] == list(t_values)
        # members differ: the family rotates the surface through distinct
        # immersions even though the metric data is shared
        assert np.max(np.abs(members[0].F - members[2].F)) > 1e-3

    def test_family_call_equals_scalar_calls(self):
        t_values = [0.1, 0.9, 2.0]
        members = [
            surface.surface_from_frame(field)
            for field in frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, t_values)
        ]
        for t, member in zip(t_values, members):
            single = surface.surface_from_frame(
                frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, t)
            )
            assert member.t == t
            for name in ("F", "height", "aux_height", "fhat"):
                np.testing.assert_allclose(
                    getattr(member, name), getattr(single, name),
                    rtol=0.0, atol=1e-14,
                )


class TestShapeGate:
    # A frame is its first row (frame.FrameField.row): row[k, 0, j, i] is
    # the a entry of Psi, Psi_t or Psi_tt at node (j, i), and row 1 is read
    # as its conjugate swap, so a bump moves a and conj(a) together.

    def test_corrupted_frame_is_rejected(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[0, 0, 2, 3] += 0.1
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field)

    def test_corrupted_derivative_is_rejected(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[1, 0, 2, 3] += 0.05
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field)

    def test_corrupted_second_derivative_is_rejected(self):
        # psi_tt enters only the diagonal of the immersion matrix: fhat
        # keeps its shape, the point-model check must catch it
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[2, 0, 2, 3] += 0.05
        with pytest.raises(
            ShapeViolation, match="matrix deviates from the point-model shape"
        ):
            surface.surface_from_frame(field)

    def test_each_immersion_defect_is_measured(self, monkeypatch):
        # every matrix is [[a, b], [conj(b), conj(a)]], so d11 = conj(d00)
        # and f00 - f11 = 2i Im f00 = -i Re d00: both point-model checks
        # read |Re d00|.  A bump delta of psi_tt's a entry moves d00 by
        # -2 delta conj(a) / det(psi) at its node.  det(psi) = 1 and a is
        # real there, so a real bump is a defect of 2 delta a, and an
        # imaginary one keeps the shape and moves the height by -Im(delta) a
        base = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        a = base.row[0, 0, 2, 3]
        assert a.imag == 0.0
        reference = surface.surface_from_frame(base)
        assert reference.shape_deviation < 1e-8

        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[2, 0, 2, 3] += 1e-3
        with pytest.raises(ShapeViolation, match="point-model shape"):
            surface.surface_from_frame(field)
        monkeypatch.setattr(surface, "SHAPE_TOL", 1.0)
        loose = surface.surface_from_frame(field)
        assert loose.shape_deviation == pytest.approx(2e-3 * a.real, rel=1e-5)
        monkeypatch.undo()

        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[2, 0, 2, 3] += 1e-3j
        moved = surface.surface_from_frame(field)
        assert moved.shape_deviation == reference.shape_deviation
        shift = moved.height - reference.height
        assert shift[2, 3] == pytest.approx(-1e-3 * a.real, rel=1e-6)
        shift[2, 3] = 0.0
        np.testing.assert_array_equal(shift, 0.0)

    def test_nan_second_derivative_is_rejected(self):
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[2, 0, 2, 3] = np.nan
        with np.errstate(all="ignore"), pytest.raises(
            ShapeViolation, match="matrix shape deviation is not finite"
        ):
            surface.surface_from_frame(field)

    def test_nan_derivative_is_rejected(self):
        # a NaN deviation compares false against the tolerance
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[1, 0, 2, 3] = np.nan
        with np.errstate(all="ignore"), pytest.raises(
            ShapeViolation, match="auxiliary matrix field is not finite"
        ):
            surface.surface_from_frame(field)

    def test_overflowing_frames_are_singular(self):
        # rho0 = 4e20 with Q0 = 1e20 is admissible (residual 0), but the
        # frames overflow to NaN on [-1, 1]^2; the assembly used to return
        # NaN coordinates with shape_deviation = nan
        huge = Potential.constant(4e20, (1e20,))
        ax = np.linspace(-1.0, 1.0, 17)
        with pytest.raises(SingularFrameError, match="not finite"):
            surface.generate_surface(huge, ax, ax, 0.0)

    def test_loose_tolerance_admits_the_same_frame(self, monkeypatch):
        # the frame's own deviation (5.2e-9) passes the tight tolerance;
        # the bump adds 4e-8, which fails it and passes SHAPE_TOL (1e-6)
        assert surface.SHAPE_TOL == 1e-6
        field = frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        field.row[1, 0, 2, 3] += 1e-8
        surface.surface_from_frame(field)
        monkeypatch.setattr(surface, "SHAPE_TOL", 2e-8)
        with pytest.raises(ShapeViolation):
            surface.surface_from_frame(field)
        surface.surface_from_frame(
            frame.integrate_grid(UNIT_POTENTIAL, AXES, AXES, 0.0)
        )


def whole_grid(field):
    """surface_from_frame's formulas, evaluated over the whole grid at once.

    Returns F, height, aux_height, fhat, det_deviation and shape_deviation
    from one surface._assemble call on the full matrices of field.
    """
    (h00, h01, h10, h11), (d00, d11) = surface._assemble(
        *(mat2.entries(m) for m in (field.psi, field.psi_t, field.psi_tt))
    )
    f00 = -0.5 * (1j * d00)
    f11 = -0.5 * (-1j * d11)
    fhat_dev = np.max(
        np.maximum(
            np.maximum(np.abs(h00.real), np.abs(h00 + h11)),
            np.abs(h10 - np.conj(h01)),
        )
    )
    f_dev = np.max(np.maximum(np.abs(f00 - f11), np.abs(f00.imag)))
    return {
        "F": h01,
        "height": f00.real,
        "aux_height": h00.imag,
        "fhat": mat2.from_entries((h00, h01, h10, h11)),
        "det_deviation": np.max(np.abs(mat2.det(mat2.entries(field.psi)) - 1.0)),
        "shape_deviation": max(fhat_dev, f_dev),
    }


def assembly_blocks(ny, nx):
    """The row slices surface_from_frame assembles one at a time."""
    return [rows for rows, _ in row_blocks(ny, nx, surface.ASSEMBLY_BLOCK_NODES)]


def identity_frames(nx, blocks):
    """Frames psi = I, psi_t = psi_tt = 0 on a grid of `blocks` full row
    blocks of width nx, and the blocks' row slices."""
    ny = blocks * (surface.ASSEMBLY_BLOCK_NODES // nx)
    row = np.zeros((3, 2, ny, nx), dtype=complex)
    row[0, 0] = 1.0
    field = frame.FrameField(x=np.arange(nx) / nx, y=np.arange(ny) / nx, t=0.0, row=row)
    slices = assembly_blocks(ny, nx)
    assert len(slices) == blocks
    return field, slices


class TestRowBlocks:
    # surface_from_frame assembles at most ASSEMBLY_BLOCK_NODES // nx grid
    # rows at a time, in blocks of nearly equal size; every output must be
    # the whole-grid pass, bit for bit

    @pytest.mark.parametrize("t", [0.3, [0.0, 0.7, 2.1]], ids=["one-t", "three-t"])
    @pytest.mark.parametrize(
        "nx, ny, block_nodes, sizes",
        [
            # a single block: the flagship's grid
            (49, 49, None, [49]),
            # five blocks of 25-26 rows, where 31 would fit
            (129, 129, None, [25] + [26] * 4),
            # three equal blocks of 43 rows
            (129, 129, 43 * 129, [43] * 3),
            # blocks of 30 and 31 rows on a lopsided grid off z = 0
            (97, 61, None, [30, 31]),
        ],
    )
    def test_blocks_match_the_whole_grid(
        self, monkeypatch, nx, ny, block_nodes, sizes, t
    ):
        if block_nodes is not None:
            monkeypatch.setattr(surface, "ASSEMBLY_BLOCK_NODES", block_nodes)
        blocks = assembly_blocks(ny, nx)
        assert [len(range(ny)[rows]) for rows in blocks] == sizes
        x = np.linspace(-0.303, 0.657, nx)
        y = np.linspace(-0.105, 0.495, ny)
        fields = frame.integrate_grid(UNIT_POTENTIAL, x, y, t)
        for field in [fields] if np.ndim(t) == 0 else fields:
            surf = surface.surface_from_frame(field)
            want = whole_grid(field)
            for name in ("F", "height", "aux_height", "fhat"):
                np.testing.assert_array_equal(getattr(surf, name), want[name])
            for name in ("det_deviation", "shape_deviation"):
                assert getattr(surf, name) == want[name]

    def test_not_finite_determinant_anywhere_fails_first(self):
        # a singular frame in the first block and one that is not finite
        # in the last: the whole grid's first test, "not finite", fails
        field, blocks = identity_frames(64, 3)
        first, last = blocks[0].start + 1, blocks[-1].stop - 2
        field.row[0, 0, first, 5] = 0.0
        with pytest.raises(SingularFrameError, match="below"):
            surface.surface_from_frame(field)
        field.row[0, 0, last, 7] = np.nan
        with pytest.raises(SingularFrameError, match="not finite"):
            surface.surface_from_frame(field)

    @pytest.mark.parametrize("larger", ["first", "last"])
    def test_shape_deviation_is_the_largest_over_all_blocks(self, monkeypatch, larger):
        # with psi = I, a real bump e of psi_t's a entry makes fhat's
        # diagonal -2 e + 2i and -2 e - 2i: a deviation of 4 e at its node
        field, blocks = identity_frames(64, 3)
        bumps = (1e-6, 1e-5) if larger == "last" else (1e-5, 1e-6)
        for rows, bump in zip((blocks[0], blocks[-1]), bumps):
            field.row[1, 0, rows.start + 1, 9] = bump
        with pytest.raises(
            ShapeViolation, match=f"model shape by {4e-5:.3e} "
        ):
            surface.surface_from_frame(field)
        monkeypatch.setattr(surface, "SHAPE_TOL", 1.0)
        surf = surface.surface_from_frame(field)
        assert surf.shape_deviation == whole_grid(field)["shape_deviation"]
        assert surf.shape_deviation == pytest.approx(4e-5)

    def test_gates_keep_their_order_over_all_blocks(self):
        # a point-model defect in the first block and an fhat defect in
        # the last: fhat's gate judges the whole grid before f's does
        field, blocks = identity_frames(64, 3)
        field.row[2, 0, blocks[0].start + 1, 3] = 1e-3
        with pytest.raises(ShapeViolation, match="point-model shape"):
            surface.surface_from_frame(field)
        field.row[1, 0, blocks[-1].start + 1, 3] = 1e-3
        with pytest.raises(ShapeViolation, match="auxiliary matrix field deviates"):
            surface.surface_from_frame(field)
        # and a deviation that is not finite outranks a larger finite one
        field.row[1, 0, blocks[0].start + 2, 3] = np.nan
        with np.errstate(all="ignore"), pytest.raises(
            ShapeViolation, match="auxiliary matrix field is not finite"
        ):
            surface.surface_from_frame(field)

    @pytest.mark.parametrize("block_nodes", [1024, 4096])
    def test_temporaries_are_bounded_by_the_block(self, monkeypatch, block_nodes):
        # one 129^2 member: its outputs, its determinant plane and at most
        # 48 complex planes of one block.  A pass over the whole grid holds
        # about 28 planes of the grid on top of its outputs (7.4 MB here)
        monkeypatch.setattr(surface, "ASSEMBLY_BLOCK_NODES", block_nodes)
        ax = np.linspace(-0.5, 0.5, 129)
        field = frame.integrate_grid(UNIT_POTENTIAL, ax, ax, 0.3)
        tracemalloc.start()
        try:
            surf = surface.surface_from_frame(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(
            getattr(surf, name).nbytes for name in ("F", "height", "aux_height", "fhat")
        )
        plane = np.dtype(complex).itemsize
        assert peak < outputs + plane * ax.size**2 + 48 * plane * block_nodes

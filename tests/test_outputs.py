"""Tests for the mesh, CSV, and JSON writers and their readers."""

import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from obj_reader import read_obj

from nilsurf import outputs
from nilsurf.errors import SchemaError
from nilsurf.surface import SurfaceGrid


def toy_surface(n=9, seed=3):
    """A synthetic grid with irrational-looking coordinates."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.4, 0.4, n)
    y = np.linspace(-0.4, 0.4, n)
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = rng.standard_normal((n, n)) / 3.0
    f[0, 0] = 0.0
    h[0, 0] = 0.0
    return SurfaceGrid(x=x, y=y, t=0.0, F=f, height=h)


def element_wise_csv(header, x, y, fields):
    """Reference CSV writer: one repr per value, one line per node."""
    lines = [header]
    for j in range(y.size):
        for i in range(x.size):
            values = [x[i], y[j]] + [f[j, i] for f in fields]
            lines.append(",".join(repr(float(v) + 0.0) for v in values))
    return ("\n".join(lines) + "\n").encode()


def awkward_surface(n):
    """toy_surface with -0.0, a tiny and a huge coordinate near the origin."""
    surf = toy_surface(n, seed=n)
    surf.F[0, 1] = complex(-0.0, 1e-17)
    surf.height[0, 1] = -0.0
    surf.F[1, 0] = complex(-1.2e14, 0.5)
    return surf


class TestObj:
    def test_counts_and_layout(self, tmp_path):
        surf = toy_surface(9)
        path = tmp_path / "mesh.obj"
        summary = outputs.export_obj(surf, path)
        assert summary.vertex_count == 81
        assert summary.face_count == 128
        text = path.read_text()
        lines = text.splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 81
        assert len(f_lines) == 128
        assert v_lines[0] == "v 0 0 0"  # pinned base node, -0 normalized
        assert text.endswith("\n")

    def test_faces_are_one_based_cell_triangles(self, tmp_path):
        surf = toy_surface(9)
        path = tmp_path / "mesh.obj"
        outputs.export_obj(surf, path)
        _, faces = read_obj(path)
        # first cell: nodes 0, 1, 9, 10 (0-based after read-back)
        np.testing.assert_array_equal(faces[0], [0, 1, 10])
        np.testing.assert_array_equal(faces[1], [0, 10, 9])
        assert faces.min() == 0
        assert faces.max() == 80
        # every face index triple is distinct
        assert all(len(set(face)) == 3 for face in faces.tolist())

    def test_vertex_round_trip_accuracy(self, tmp_path):
        surf = toy_surface(11, seed=8)
        path = tmp_path / "mesh.obj"
        outputs.export_obj(surf, path)
        verts, _ = read_obj(path)
        expected = surf.coords().reshape(-1, 3)
        err = np.abs(verts - expected)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(err / scale) <= 5e-12  # 12 significant digits

    def test_deterministic_bytes(self, tmp_path):
        surf = toy_surface(9)
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        outputs.export_obj(surf, p1)
        outputs.export_obj(surf, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n", [9, 129])
    def test_bytes_match_the_line_by_line_writer(self, tmp_path, n):
        # reference: one formatted line per vertex and per triangle
        surf = toy_surface(n, seed=n)
        surf.F[0, 1] = complex(-0.0, 1e-17)
        surf.height[0, 1] = -0.0
        surf.F[1, 0] = complex(-123456789012345.0, 0.5)
        coords = surf.coords()
        lines = [
            "v " + " ".join(f"{float(c) + 0.0:.12g}" for c in coords[j, i])
            for j in range(n)
            for i in range(n)
        ]
        for j in range(n - 1):
            for i in range(n - 1):
                v00 = j * n + i + 1
                lines.append(f"f {v00} {v00 + 1} {v00 + n + 1}")
                lines.append(f"f {v00} {v00 + n + 1} {v00 + n}")
        path = tmp_path / "mesh.obj"
        outputs.export_obj(surf, path)
        assert "v 0 1e-17 0" in lines[1]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestSurfaceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        surf = toy_surface(9, seed=5)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        back = outputs.read_surface_csv(path)
        np.testing.assert_array_equal(back.x, surf.x)
        np.testing.assert_array_equal(back.y, surf.y)
        np.testing.assert_array_equal(back.F, surf.F)
        np.testing.assert_array_equal(back.height, surf.height)
        assert back.t == 0.0

    def test_header(self, tmp_path):
        surf = toy_surface(9)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        assert path.read_text().splitlines()[0] == "x,y,F_re,F_im,h"

    @pytest.mark.parametrize("n", [9, 65])
    def test_bytes_match_the_element_wise_writer(self, tmp_path, n):
        surf = awkward_surface(n)
        coords = surf.coords()
        expected = element_wise_csv(
            "x,y,F_re,F_im,h", surf.x, surf.y, [coords[..., k] for k in range(3)]
        )
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        assert b",-0.4,0.0,1e-17,0.0\n" in expected  # -0.0 normalized
        assert b",-120000000000000.0,0.5," in expected
        assert path.read_bytes() == expected

    def test_bytes_match_the_element_wise_writer_on_a_rectangular_grid(
        self, tmp_path
    ):
        # 11 columns, 6 rows: x and y are formatted on different schedules
        big = awkward_surface(11)
        surf = SurfaceGrid(
            x=big.x, y=big.y[:6], t=0.0, F=big.F[:6], height=big.height[:6]
        )
        coords = surf.coords()
        expected = element_wise_csv(
            "x,y,F_re,F_im,h", surf.x, surf.y, [coords[..., k] for k in range(3)]
        )
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        assert len(expected.splitlines()) == 1 + 6 * 11
        assert path.read_bytes() == expected

    def test_row_order_is_irrelevant_on_read(self, tmp_path):
        surf = toy_surface(9, seed=6)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        lines = path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        rows.reverse()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows) + "\n")
        back = outputs.read_surface_csv(shuffled)
        np.testing.assert_array_equal(back.F, surf.F)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,re,im,h\n0,0,0,0,0\n")
        with pytest.raises(SchemaError):
            outputs.read_surface_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,F_re,F_im,h\n0,0,zero,0,0\n")
        with pytest.raises(SchemaError) as err:
            outputs.read_surface_csv(path)
        assert "line 2" in str(err.value)

    def test_non_finite_values_name_their_line(self, tmp_path):
        surf = toy_surface(9)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        lines = path.read_text().splitlines()
        poisoned = tmp_path / "poisoned.csv"
        for column, value in ((2, "nan"), (4, "inf"), (4, "nan"), (0, "-inf")):
            cells = lines[40].split(",")
            cells[column] = value
            rows = lines[:40] + [",".join(cells)] + lines[41:]
            poisoned.write_text("\n".join(rows) + "\n")
            with pytest.raises(SchemaError) as err:
                outputs.read_surface_csv(poisoned)
            assert "line 41: non-finite value" in str(err.value)

    def test_non_uniform_axis_is_rejected(self, tmp_path):
        # the exact vertical plane F = x, h = y on a 17 x 17 dyadic grid,
        # with one node of one axis moved by 0.03
        path = tmp_path / "moved.csv"
        for name in ("x", "y"):
            ax = np.arange(-8, 9) * 0.125
            x = ax.copy()
            y = ax.copy()
            (x if name == "x" else y)[5] += 0.03
            x2d, y2d = np.meshgrid(x, y)
            plane = SurfaceGrid(
                x=x, y=y, t=0.0, F=x2d.astype(complex), height=y2d.copy()
            )
            outputs.write_surface_csv(plane, path)
            with pytest.raises(SchemaError) as err:
                outputs.read_surface_csv(path)
            assert f"{name} axis is not uniformly spaced" in str(err.value)

    def test_long_uniform_axis_survives_the_text_round_trip(self, tmp_path):
        x = np.linspace(-0.6, 0.6, 1025)
        y = np.linspace(-0.6, 0.6, 3)
        surf = SurfaceGrid(
            x=x, y=y, t=0.0, F=np.zeros((3, 1025), complex), height=np.zeros((3, 1025))
        )
        path = tmp_path / "long.csv"
        outputs.write_surface_csv(surf, path)
        back = outputs.read_surface_csv(path)
        np.testing.assert_array_equal(back.x, x)

    def test_incomplete_grid(self, tmp_path):
        surf = toy_surface(9)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        lines = path.read_text().splitlines()
        clipped = tmp_path / "clipped.csv"
        clipped.write_text("\n".join(lines[:-1]) + "\n")  # drop last node
        with pytest.raises(SchemaError):
            outputs.read_surface_csv(clipped)

    def test_duplicate_row_in_place_of_another_node(self, tmp_path):
        # the row count still matches the grid, so only the fill check
        # sees the node that no row reaches
        surf = toy_surface(9)
        path = tmp_path / "surface.csv"
        outputs.write_surface_csv(surf, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[4]
        duplicated = tmp_path / "duplicated.csv"
        duplicated.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="duplicate rows leave grid nodes"):
            outputs.read_surface_csv(duplicated)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            outputs.read_surface_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text("x,y,F_re,F_im,h\n")
        with pytest.raises(SchemaError):
            outputs.read_surface_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x,y,F_re,F_im,h\n0,0,0,0\n")
        with pytest.raises(SchemaError):
            outputs.read_surface_csv(path)


#: Finite doubles, with the awkward ones drawn often: signed zero, a
#: value far below and one far above the grid scale, and subnormals.
finite_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-17, -1.2e14, 5e-324, -2.5e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: repr is the writer's format; %.17g and %e are what other tools write.
value_formats = st.sampled_from([repr, "%.17g".__mod__, "%e".__mod__])


def toy_csv_lines(n=3):
    """Header and rows of a valid n x n surface table."""
    surf = toy_surface(n, seed=8)
    coords = surf.coords()
    lines = ["x,y,F_re,F_im,h"]
    for j in range(n):
        for i in range(n):
            values = [surf.x[i], surf.y[j]] + list(coords[j, i])
            lines.append(",".join(repr(float(v)) for v in values))
    return lines


class TestFastCsvParse:
    """NumPy's parser against the line-by-line parser it stands in for."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.lists(st.tuples(finite_values, value_formats), min_size=5, max_size=5),
            min_size=1,
            max_size=12,
        )
    )
    def test_fast_path_is_bitwise_equal_to_the_line_by_line_path(
        self, tmp_path, rows
    ):
        path = tmp_path / "rows.csv"
        text = "\n".join(",".join(fmt(v) for v, fmt in row) for row in rows)
        path.write_text("x,y,F_re,F_im,h\n" + text + "\n")
        slow = outputs._parse_rows_by_line(path)
        # the fast path must accept every such file without falling back
        with mock.patch.object(
            outputs, "_parse_rows_by_line", side_effect=AssertionError
        ):
            fast = outputs._parse_rows(path)
        assert fast.shape == slow.shape == (len(rows), 5)
        assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize(
        "written, meant",
        [("1_0", "10"), ('"0.25"', "0.25"), ("\u0661", "1")],
    )
    def test_text_only_float_accepts_reads_as_before(self, tmp_path, written, meant):
        # float() accepts underscores, quoted fields and non-ASCII digits;
        # NumPy's parser does not, so these files take the line-by-line path
        lines = toy_csv_lines()
        paths = []
        for name, value in (("written", written), ("meant", meant)):
            cells = lines[5].split(",")
            cells[4] = value
            path = tmp_path / f"{name}.csv"
            path.write_text(
                "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n",
                encoding="utf-8",
            )
            paths.append(path)
        got, expected = (outputs.read_surface_csv(p) for p in paths)
        np.testing.assert_array_equal(got.height, expected.height)
        np.testing.assert_array_equal(got.F, expected.F)

    def test_empty_body_message_and_no_warning(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("x,y,F_re,F_im,h\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="header_only.csv: no data rows$"):
                outputs.read_surface_csv(path)

    def test_whitespace_only_line_names_its_line(self, tmp_path):
        lines = toy_csv_lines()
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines[:4] + ["   "] + lines[4:]) + "\n")
        with pytest.raises(SchemaError, match="line 5: expected 5 columns$"):
            outputs.read_surface_csv(path)

    def test_blank_line_is_skipped_by_both_paths(self, tmp_path):
        lines = toy_csv_lines()
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines[:4] + [""] + lines[4:]) + "\n")
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(lines) + "\n")
        np.testing.assert_array_equal(
            outputs.read_surface_csv(path).F, outputs.read_surface_csv(plain).F
        )


class TestSolutionCsv:
    def test_round_trip_through_text(self, tmp_path):
        class Result:
            x = np.linspace(-1.0, 1.0, 9)
            y = np.linspace(-1.0, 1.0, 9)
            u = np.log(1.0 + np.arange(81.0).reshape(9, 9))

        path = tmp_path / "solution.csv"
        outputs.write_solution_csv(Result(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 81
        data = np.asarray(
            [[float(v) for v in line.split(",")] for line in lines[1:]]
        )
        np.testing.assert_array_equal(
            data[:, 2].reshape(9, 9), Result.u
        )
        np.testing.assert_array_equal(data[:9, 0], Result.x)

    def test_bytes_match_the_element_wise_writer(self, tmp_path):
        surf = awkward_surface(9)

        class Result:
            x = surf.x
            y = surf.y[:7]
            u = surf.coords()[:7, :, 0]

        expected = element_wise_csv("x,y,u", Result.x, Result.y, [Result.u])
        path = tmp_path / "solution.csv"
        outputs.write_solution_csv(Result(), path)
        assert b",-0.0\n" not in expected
        assert b",-120000000000000.0\n" in expected
        assert path.read_bytes() == expected


class TestJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "report.json"
        outputs.write_json({"b": 1, "a": {"d": 2, "c": 3}}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert json.loads(text) == {"b": 1, "a": {"d": 2, "c": 3}}

    def test_deterministic(self, tmp_path):
        doc = {"z": [1.5, None], "m": {"k": True}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        outputs.write_json(doc, p1)
        outputs.write_json(dict(reversed(doc.items())), p2)
        assert p1.read_bytes() == p2.read_bytes()


def assert_no_child():
    """The calling process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriteAside:
    def test_child_oserror_is_raised_as_it_would_be_in_place(self, tmp_path):
        path = tmp_path / "missing" / "mesh.obj"
        surf = toy_surface(9)
        with pytest.raises(OSError) as in_place:
            outputs.export_obj(surf, path)
        with pytest.raises(OSError) as aside:
            with outputs.write_aside(lambda: outputs.export_obj(surf, path)):
                pass
        assert_no_child()
        assert type(aside.value) is type(in_place.value) is FileNotFoundError
        assert str(aside.value) == str(in_place.value)
        assert aside.value.filename == str(path)

    def test_block_exception_comes_first_and_the_child_is_reaped(self):
        def broken():
            raise ValueError("not a mesh")

        with pytest.raises(KeyError):
            with outputs.write_aside(broken):
                raise KeyError("the block")
        assert_no_child()

    def test_runs_inline_where_fork_does_not_exist(self, monkeypatch):
        # the write in place follows the block, as after a failed child
        monkeypatch.delattr(os, "fork")
        order = []
        with outputs.write_aside(lambda: order.append(("write", os.getpid()))):
            order.append(("block", os.getpid()))
        assert order == [("block", os.getpid()), ("write", os.getpid())]

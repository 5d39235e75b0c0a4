"""Tests for the mesh, CSV, and JSON writers and their readers."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from obj_reader import read_obj

from nilsurf import outputs, pipeline, residuals
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

    @pytest.mark.parametrize(
        "nx, ny, row_scale",
        [
            pytest.param(9, 9, None, id="9"),
            pytest.param(129, 129, None, id="129"),
            pytest.param(23, 14, None, id="23x14"),
            # a row of values below 1e-4, and one at or above 1e12: the
            # exponential notation, "e-06" and "e+12"
            pytest.param(11, 7, 1e-6, id="11x7-row-below-1e-4"),
            pytest.param(11, 7, 1e12, id="11x7-row-from-1e12"),
        ],
    )
    def test_bytes_match_the_line_by_line_writer(self, tmp_path, nx, ny, row_scale):
        # reference: one formatted line per vertex and per triangle
        big = toy_surface(max(nx, ny), seed=nx)
        surf = SurfaceGrid(
            x=big.x[:nx], y=big.y[:ny], t=0.0, F=big.F[:ny, :nx],
            height=big.height[:ny, :nx],
        )
        surf.F[0, 1] = complex(-0.0, 1e-17)
        surf.height[0, 1] = -0.0
        surf.F[1, 0] = complex(-123456789012345.0, 0.5)
        if row_scale is not None:
            # row 3: every coordinate keeps its sign, at magnitude
            # row_scale * (1 + |coordinate|)
            def scaled(v):
                return np.copysign(row_scale * (1.0 + np.abs(v)), v)

            surf.F[3] = scaled(surf.F[3].real) + 1j * scaled(surf.F[3].imag)
            surf.height[3] = scaled(surf.height[3])
        coords = surf.coords()
        lines = [
            "v " + " ".join(f"{float(c) + 0.0:.12g}" for c in coords[j, i])
            for j in range(ny)
            for i in range(nx)
        ]
        for j in range(ny - 1):
            for i in range(nx - 1):
                v00 = j * nx + i + 1
                lines.append(f"f {v00} {v00 + 1} {v00 + nx + 1}")
                lines.append(f"f {v00} {v00 + nx + 1} {v00 + nx}")
        path = tmp_path / "mesh.obj"
        outputs.export_obj(surf, path)
        assert "v 0 1e-17 0" in lines[1]
        if row_scale == 1e-6:
            assert all(line.count("e-06") == 3 for line in lines[3 * nx : 4 * nx])
        if row_scale == 1e12:
            assert all(line.count("e+12") == 3 for line in lines[3 * nx : 4 * nx])
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def percent_g_lines(rows):
    """Reference vertex lines: Python's own "%.12g", one line per row."""
    return b"".join(b"v %.12g %.12g %.12g\n" % tuple(row) for row in rows)


def kernel_lines(rows):
    """The vertex lines the OBJ writer's kernel makes of the same rows."""
    block = np.asarray(rows, dtype=float).reshape(-1, 3)
    return b"".join(outputs._vertex_lines(block))


def ulp_steps(value, steps=3):
    """value and its neighbours up to `steps` doubles away on each side."""
    out = [value]
    for direction in (np.inf, -np.inf):
        x = value
        for _ in range(steps):
            x = float(np.nextafter(x, direction))
            out.append(x)
    return out


#: Any double: Hypothesis's floats (signed zeros, subnormals, infinities
#: and NaN among them), every bit pattern, values of mesh size, and the
#: doubles nearest to 12-digit half-way points, which "%.12g" rounds by
#: their last bits.
any_double = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))
    ),
    st.floats(-1e3, 1e3),
    st.builds(
        lambda digits, k: float(f"{digits}.5e{k}"),
        st.integers(-(10**12) + 1, 10**12 - 1),
        st.integers(-40, 30),
    ),
)


class TestVertexKernel:
    """The vertex block's "%.12g" kernel against Python's formatting."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(any_double, any_double, any_double), min_size=1))
    def test_equals_percent_g_for_any_double(self, rows):
        assert kernel_lines(rows) == percent_g_lines(rows)

    def test_equals_percent_g_at_decade_and_rounding_boundaries(self):
        values = [1e-17, -1.2e14, 5e-324, -2.5e-310, 2.2250738585072014e-308]
        values += [1.7976931348623157e308, 1e-99, 1e99, 9.99999999999e-100]
        for k in range(-30, 31):
            for text in (f"1e{k}", f"9.999999999995e{k}", f"123456789012.5e{k}"):
                values += ulp_steps(float(text))
        values += [-v for v in values] + [0.0, -0.0, np.inf, -np.inf, np.nan]
        rows = np.resize(np.array(values), (len(values) + 2) // 3 * 3)
        # each value in every column of a line
        for shift in range(3):
            shifted = np.roll(rows, shift).reshape(-1, 3)
            assert kernel_lines(shifted) == percent_g_lines(shifted.tolist())

    def test_a_decade_estimate_one_off_is_corrected(self, monkeypatch):
        # the kernel takes its decade estimate from np.log; half a decade
        # added or taken off puts the estimate one decade off for about
        # half of all values, and the text must not change
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-20, 20, (300, 3))
        expected = percent_g_lines(rows.tolist())
        log = np.log
        for shift in (0.5, -0.5):
            monkeypatch.setattr(np, "log", lambda a: log(a) + shift * log(10.0))
            assert kernel_lines(rows) == expected

    def test_lines_span_blocks(self):
        # more rows than one pass of the kernel takes, with values
        # Python formats (0, a half-way mantissa) at the passes' edges
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((2 * outputs._CHUNK + 5, 3))
        rows[outputs._CHUNK - 1 : outputs._CHUNK + 1] = [0.0, 123456789012.5, -0.0]
        assert kernel_lines(rows) == percent_g_lines(rows.tolist())


def repr_lines(values):
    """Reference CSV lines "x,y,v": Python's own repr of v + 0.0."""
    return b"".join(b"x,y,%r\n" % (float(v) + 0.0) for v in values)


def repr_kernel_lines(values):
    """The lines the CSV writers' kernel makes of the same values."""
    block = np.array([float(v) + 0.0 for v in values]).reshape(-1, 1)
    return b"".join(outputs._csv_lines(["x"] * len(block), ["y"], block))


class TestReprKernel:
    """The CSV writers' repr kernel against Python's formatting."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_double, min_size=1))
    def test_equals_repr_for_any_double(self, values):
        assert repr_kernel_lines(values) == repr_lines(values)

    def test_equals_repr_at_decade_carry_and_tie_boundaries(self):
        # the ends of the fixed-notation range
        values = [1e-4, 1e16]
        # powers of two, whose gap below is half the gap above
        values += [2.0**k for k in range(-14, 54)]
        # integers from 2^53, where the double spacing is 2
        values += [2.0**53, 2.0**53 + 2.0, 5e15 + 4.0, 1e16 - 2.0]
        # 17-, 16- and 15-digit roundings that carry into a new decade
        values += [9.9999999999999995e-05, 0.99999999999999989]
        values += [9999999999999998.0, 999999999999999.9, 99999999999999.98]
        values += [float(f"{'9' * n}e{k}") for n in (15, 16, 17) for k in (-20, -17, -1)]
        for k in range(-4, 17):
            values += ulp_steps(10.0**k)
        # exact ties between two 17-, 16- or 15-digit candidates: at
        # decade 16 - k, a multiple of 2^-(k + 1) puts y half-way
        for k in range(1, 5):
            base = 10.0 ** (16 - k)
            values += [base + 2.0 ** -(k + 1), base + 5.0 * 2.0**-k, base + 50.0 * 2.0**-k]
        values += [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5, 1e15 + 5.0]
        steps = []
        for value in values:
            steps += ulp_steps(value)
        steps += [-v for v in steps]
        steps += [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]
        steps += [np.inf, -np.inf, np.nan]
        assert repr_kernel_lines(steps) == repr_lines(steps)

    def test_a_decade_estimate_one_off_is_corrected(self, monkeypatch):
        # as in the vertex kernel: half a decade added to or taken off
        # np.log puts the estimate one decade off for about half of all
        # values, and the text must not change
        rng = np.random.default_rng(13)
        values = rng.standard_normal(600) * 10.0 ** rng.integers(-6, 18, 600)
        expected = repr_lines(values)
        log = np.log
        for shift in (0.5, -0.5):
            monkeypatch.setattr(np, "log", lambda a: log(a) + shift * log(10.0))
            assert repr_kernel_lines(values) == expected

    def test_tables_are_built_on_first_use(self):
        # importing the program builds neither kernel's tables
        src = str(Path(outputs.__file__).resolve().parents[1])
        code = (
            "import nilsurf.cli\n"
            "from nilsurf import outputs\n"
            "print(outputs._repr_tables.cache_info().currsize,"
            " outputs._kernel_tables.cache_info().currsize)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


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
        # with one node of one axis moved by 0.03: the reader reads it,
        # and check's grid gate refuses it
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
            lines = []
            code, report = pipeline.run_check(path, log=lines.append)
            assert code == pipeline.EXIT_CONFIG
            assert report is None
            errors = [line for line in lines if line.startswith("error: ")]
            assert len(errors) == 1
            assert f"{name} axis is not uniformly spaced" in errors[0]

    def test_long_uniform_axis_survives_the_text_round_trip(self, tmp_path):
        # the vertical plane on 1025 x 7 nodes: 7 rows reach the grid
        # gate at the default margin, which must accept the read-back
        # 1025-node axis
        x = np.linspace(-0.6, 0.6, 1025)
        y = np.linspace(-0.6, 0.6, 7)
        x2d, y2d = np.meshgrid(x, y)
        surf = SurfaceGrid(x=x, y=y, t=0.0, F=x2d + 0j, height=y2d)
        path = tmp_path / "long.csv"
        outputs.write_surface_csv(surf, path)
        back = outputs.read_surface_csv(path)
        np.testing.assert_array_equal(back.x, x)
        report = residuals.verify_surface(back)
        assert (report.nx, report.ny) == (1025, 7)

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

        # both writers on a 37 x 60 grid, more nodes than one pass of the
        # kernel takes, so that passes end inside grid rows; values that
        # Python formats sit on either side of each pass's end
        rng = np.random.default_rng(17)
        x = np.linspace(-0.6, 0.6, 37)
        y = np.linspace(-1.0, 1.3, 60)
        python_formats = [0.0, 1e-5, 1e16, -0.0]

        def with_python_values(shape):
            field = rng.standard_normal(shape)
            k = field.size // (x.size * y.size)
            per_pass = outputs._CSV_CHUNK // k
            for end in range(per_pass, x.size * y.size, per_pass):
                assert end % x.size != 0  # inside a grid row
                field.reshape(-1)[end * k - 2 : end * k + 2] = python_formats
            return field

        Result.x, Result.y = x, y
        Result.u = with_python_values((60, 37))
        outputs.write_solution_csv(Result(), path)
        expected = element_wise_csv("x,y,u", x, y, [Result.u])
        assert b",1e-05\n" in expected and b",1e+16\n" in expected
        assert path.read_bytes() == expected

        coords = with_python_values((60, 37, 3))
        surf = SurfaceGrid(
            x=x, y=y, t=0.0, F=coords[..., 0] + 1j * coords[..., 1],
            height=coords[..., 2],
        )
        outputs.write_surface_csv(surf, path)
        coords = surf.coords()
        expected = element_wise_csv(
            "x,y,F_re,F_im,h", x, y, [coords[..., k] for k in range(3)]
        )
        assert b",0.0,1e-05\n" in expected and b",1e+16,0.0," in expected
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

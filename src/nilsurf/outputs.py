"""File formats: OBJ-style meshes, CSV surface/solution tables, JSON reports.

All writers produce deterministic, platform-independent bytes: fixed "\n"
newlines, explicit float formatting, sorted JSON keys, no timestamps.
Identical inputs give bitwise-identical files, which the test suite pins.

Formats:
  * Mesh: plain OBJ-style text; one "v x1 x2 x3" line per grid node in
    row-major order (12 significant digits, negative zero normalized), then
    "f i j k" lines with 1-based vertex indices, two triangles per grid
    cell with consistent winding.
  * Surface CSV (for `check`): header x,y,F_re,F_im,h then one row per
    node, row-major, full double precision.
  * Solution CSV (from `solve-gauss`): header x,y,u, same layout.
  * Report: JSON with sorted keys; schema documented in the README.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .surface import SurfaceGrid

# The residual stencils assume uniform axes.  CSV round trips of a uniform
# axis deviate by ~1e-13 relative; a misplaced node is off by order 1.
UNIFORM_SPACING_RTOL = 1e-6


@dataclass
class MeshSummary:
    """What export_obj wrote: path and element counts."""

    path: str
    vertex_count: int
    face_count: int


def _write_grid_csv(path, header, x, y, values):
    """Write one CSV row "x,y,values..." per grid node, row-major.

    values has shape (len(y), len(x)) or (len(y), len(x), k).  Every number
    is written in its shortest exactly round-tripping form (repr), negative
    zero normalized.  The file is written one grid row at a time.
    """
    xx, yy = np.meshgrid(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    table = np.dstack([xx, yy, values]) + 0.0
    line = ",".join(["%r"] * table.shape[-1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for row in table:
            fh.write((line * len(row)) % tuple(row.ravel().tolist()))


def export_obj(surface, path):
    """Write a surface grid as an OBJ-style triangle mesh.

    Vertices appear in row-major node order; each grid cell contributes
    two triangles wound consistently (counterclockwise as seen from the
    +x3 side of the parameter grid).  Returns a MeshSummary; a 9x9 grid
    yields 81 vertices and 128 faces.  The file is written one grid row
    at a time.
    """
    coords = surface.coords() + 0.0  # normalize -0.0
    ny, nx = coords.shape[:2]
    v00 = np.arange(1, nx * ny + 1).reshape(ny, nx)[:-1, :-1]
    v10 = v00 + nx
    # per cell: f v00 v01 v11, then f v00 v11 v10
    faces = np.stack([v00, v00 + 1, v10 + 1, v00, v10 + 1, v10], axis=-1)
    vertex_row = "v %.12g %.12g %.12g\n" * nx
    face_row = "f %d %d %d\n" * (2 * (nx - 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in coords:
            fh.write(vertex_row % tuple(row.ravel().tolist()))
        for row in faces:
            fh.write(face_row % tuple(row.ravel().tolist()))
    return MeshSummary(
        path=str(path),
        vertex_count=nx * ny,
        face_count=2 * (nx - 1) * (ny - 1),
    )


def read_obj(path):
    """Read back an OBJ-style mesh written by export_obj.

    Returns (vertices, faces) with vertices an (n, 3) float array and
    faces an (m, 3) int array of 0-based indices.
    """
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(v) - 1 for v in parts[1:4]])
    return np.asarray(vertices, dtype=float), np.asarray(faces, dtype=int)


def write_surface_csv(surface, path):
    """Write a surface as the CSV table consumed by `check`."""
    _write_grid_csv(
        path, "x,y,F_re,F_im,h\n", surface.x, surface.y, surface.coords()
    )


def _parse_rows_by_line(path):
    """The data rows as an (n, 5) array, parsed one line at a time.

    Every SchemaError names the offending line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by the caller
        rows = []
        linenos = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise SchemaError(str(path), f"line {lineno}: expected 5 columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise SchemaError(
                    str(path), f"line {lineno}: non-numeric value"
                ) from None
            linenos.append(lineno)
    if not rows:
        raise SchemaError(str(path), "no data rows")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise SchemaError(str(path), f"line {lineno}: non-finite value")
    return data


def _parse_rows(path):
    """The data rows as a finite (n, 5) array.

    NumPy's C parser reads a well-formed file in one call and converts
    each field as float() does.  It rejects some text that float()
    accepts (1_0, quoted fields, non-ASCII digits) and accepts some that
    the schema refuses (a 4-column file, nan).  So any result other than
    a non-empty, all-finite (n, 5) array reruns the line-by-line parser,
    which returns what the schema accepts and otherwise names the line
    of the first error.
    """
    with warnings.catch_warnings():
        # an empty body is reported by the line-by-line parser
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning
        )
        try:
            data = np.loadtxt(
                path,
                delimiter=",",
                comments=None,
                skiprows=1,
                ndmin=2,
                encoding="utf-8",
            )
        except ValueError:
            data = None
    if (
        data is not None
        and data.shape[0] > 0
        and data.shape[1] == 5
        and np.isfinite(data).all()
    ):
        return data
    return _parse_rows_by_line(path)


def read_surface_csv(path):
    """Read an external surface table (header x,y,F_re,F_im,h) into a grid.

    The rows must cover a complete rectangular grid (any order) of at
    least 3 x 3 nodes with uniformly spaced axes; raises SchemaError for a
    bad header, non-numeric or non-finite data, too few distinct x or y
    values, non-uniform spacing, or incomplete grids.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError(str(path), "empty CSV file") from None
    header = [col.strip() for col in header]
    if header != ["x", "y", "F_re", "F_im", "h"]:
        raise SchemaError(
            str(path),
            f"expected header x,y,F_re,F_im,h; got {','.join(header)}",
        )
    data = _parse_rows(path)
    x, ix = np.unique(data[:, 0], return_inverse=True)
    y, iy = np.unique(data[:, 1], return_inverse=True)
    if x.size < 3 or y.size < 3:
        raise SchemaError(
            str(path),
            f"need at least 3 distinct x and y values; got {x.size} x and "
            f"{y.size} y",
        )
    for name, axis in (("x", x), ("y", y)):
        mean_step = (axis[-1] - axis[0]) / (axis.size - 1)
        worst = float(np.max(np.abs(np.diff(axis) - mean_step)))
        if worst > UNIFORM_SPACING_RTOL * mean_step:
            raise SchemaError(
                str(path),
                f"{name} axis is not uniformly spaced (a step deviates from "
                f"the mean {mean_step:.6g} by {worst:.3g})",
            )
    if x.size * y.size != data.shape[0]:
        raise SchemaError(
            str(path),
            f"rows do not form a complete {y.size} x {x.size} grid "
            f"({data.shape[0]} rows)",
        )
    f_grid = np.full((y.size, x.size), np.nan, dtype=complex)
    h_grid = np.full((y.size, x.size), np.nan, dtype=float)
    f_grid[iy, ix] = data[:, 2] + 1j * data[:, 3]
    h_grid[iy, ix] = data[:, 4]
    if np.any(np.isnan(h_grid)):
        raise SchemaError(str(path), "duplicate rows leave grid nodes unfilled")
    return SurfaceGrid(x=x, y=y, t=0.0, F=f_grid, height=h_grid)


def write_solution_csv(result, path):
    """Write a solved density grid as CSV (header x,y,u), row-major."""
    _write_grid_csv(path, "x,y,u\n", result.x, result.y, result.u)


def write_json(obj, path):
    """Dump a JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

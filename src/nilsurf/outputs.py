"""File formats: OBJ-style meshes, CSV surface/solution tables, JSON reports.

All writers format deterministically: fixed "\n" newlines, explicit float
formatting, sorted JSON keys, no timestamps.  Identical inputs give
bitwise-identical files on one BLAS build and thread count, which the
test suite pins.  Across thread counts the values written for a solved
source differ in their last digits, since the density solve's BLAS
products round differently (README, criterion 8).

Formats:
  * Mesh: plain OBJ-style text; one "v x1 x2 x3" line per grid node in
    row-major order (12 significant digits, negative zero normalized), then
    "f i j k" lines with 1-based vertex indices, two triangles per grid
    cell with consistent winding.  The face block depends only on the
    grid: `generate` formats it once (`obj_faces`) and shares the text
    among the meshes of one family; nothing keeps it past that call.
    `mesh_summary` gives a mesh's vertex and face counts from its grid,
    for `export_obj` and for the report alike.
  * Surface CSV (for `check`): header x,y,F_re,F_im,h then one row per
    node, row-major, full double precision.
  * Solution CSV (from `solve-gauss`): header x,y,u, same layout.
  * Report: JSON with sorted keys; schema documented in the README.

The OBJ text is at its CPython floor (the `%.12g` formatting of the
vertex rows is most of an export), so `generate` takes it off its
critical path instead: `write_aside` runs a writer in a forked child
process while the caller goes on (verifying the members), and reaps the
child when the caller's block ends.  A child that did not exit 0 is
followed by the write in place, which is also the only write where
os.fork does not exist, so the bytes and the failures are those of
writing in place.
"""

import csv
import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .residuals import nonuniform_step
from .surface import SurfaceGrid


@dataclass
class MeshSummary:
    """What export_obj writes: path and element counts."""

    path: str
    vertex_count: int
    face_count: int


def mesh_summary(path, nx, ny):
    """The MeshSummary of the OBJ mesh of an nx x ny grid at path."""
    return MeshSummary(
        path=str(path),
        vertex_count=nx * ny,
        face_count=2 * (nx - 1) * (ny - 1),
    )


def _write_grid_csv(path, header, x, y, values):
    """Write one CSV row "x,y,values..." per grid node, row-major.

    values has shape (len(y), len(x)) or (len(y), len(x), k).  Every number
    is written in its shortest exactly round-tripping form (repr), negative
    zero normalized.  Each x is formatted once per table and each y once
    per grid row; a row's line template then takes only its values.  The
    file is written one grid row at a time.
    """
    x_text = [repr(v) for v in (np.asarray(x, dtype=float) + 0.0).tolist()]
    y_values = (np.asarray(y, dtype=float) + 0.0).tolist()
    values = np.asarray(values, dtype=float) + 0.0
    values = values.reshape(len(y_values), len(x_text), -1)
    fields = ",%r" * values.shape[-1] + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for y_value, row in zip(y_values, values):
            tail = f",{y_value!r}{fields}"
            fh.write((tail.join(x_text) + tail) % tuple(row.ravel().tolist()))


def obj_faces(nx, ny):
    """The face block of an OBJ mesh of an nx x ny grid, as text.

    Two triangles per grid cell, "f i j k" with 1-based vertex indices in
    row-major node order, wound consistently (counterclockwise as seen
    from the +x3 side of the parameter grid).  The block depends only on
    the grid, so `generate` formats it once for the whole family.
    """
    v00 = np.arange(1, nx * ny + 1).reshape(ny, nx)[:-1, :-1]
    v10 = v00 + nx
    # per cell: f v00 v01 v11, then f v00 v11 v10
    faces = np.stack([v00, v00 + 1, v10 + 1, v00, v10 + 1, v10], axis=-1)
    face_row = "f %d %d %d\n" * (2 * (nx - 1))
    return "".join(face_row % tuple(row.ravel().tolist()) for row in faces)


def export_obj(surface, path, faces=None):
    """Write a surface grid as an OBJ-style triangle mesh.

    Vertices appear in row-major node order, one grid row at a time, then
    the face block: faces, the text `obj_faces` returns for the grid, or
    formatted here when it is None.  Returns a MeshSummary; a 9x9 grid
    yields 81 vertices and 128 faces.
    """
    coords = surface.coords() + 0.0  # normalize -0.0
    ny, nx = coords.shape[:2]
    if faces is None:
        faces = obj_faces(nx, ny)
    vertex_row = "v %.12g %.12g %.12g\n" * nx
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in coords:
            fh.write(vertex_row % tuple(row.ravel().tolist()))
        fh.write(faces)
    return mesh_summary(path, nx, ny)


@contextmanager
def write_aside(write):
    """Run write() in a forked child process while the with-block runs.

    The child only formats and writes: it logs nothing, runs no BLAS
    product (so an idle BLAS thread pool left behind by the fork cannot
    hold it up) and always ends with os._exit; its exit status is all it
    reports.  Leaving the block reaps the child, in a finally, so no child
    outlives it.  When the child did not exit 0, or where os.fork does not
    exist, write() runs here after the block: a failure raises what
    writing in place raises, and a killed child still leaves its files.
    An exception of the block itself takes precedence, and then write()
    does not run again.
    """
    pid = os.fork() if hasattr(os, "fork") else None
    if pid == 0:  # the child
        status = 1
        try:
            write()
            status = 0
        finally:
            os._exit(status)
    try:
        yield
    finally:
        status = 1 if pid is None else os.waitpid(pid, 0)[1]
    if status:
        write()


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
        bad = nonuniform_step(axis)
        if bad is not None:
            raise SchemaError(
                str(path),
                f"{name} axis is not uniformly spaced (a step deviates from "
                f"the mean {bad[0]:.6g} by {bad[1]:.3g})",
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

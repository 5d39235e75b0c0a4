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
    node, row-major, full double precision.  The reader checks what only
    a reader can (header, cells, a complete grid without duplicates);
    the grid's axes are judged by verify_surface's gate.
  * Solution CSV (from `solve-gauss`): header x,y,u, same layout.
  * Report: JSON with sorted keys; schema documented in the README.

The vertex block is written by a NumPy kernel (`_vertex_lines`) whose
bytes equal Python's `%.12g`.  CPython converts one value at a time,
correctly rounded for any input (Gay 1990); the kernel converts blocks of
values whose 12-digit rounding it can certify from one float product and
hands the rest to Python's own `%.12g`.  The face block and the CSV and
JSON writers keep Python's formatting.  `generate` writes the meshes in
place, in the calling process, once it has verified every member.
"""

import csv
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
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
    """The face block of an OBJ mesh of an nx x ny grid, as bytes.

    Two triangles per grid cell, "f i j k" with 1-based vertex indices in
    row-major node order, wound consistently (counterclockwise as seen
    from the +x3 side of the parameter grid).  The block depends only on
    the grid, so `generate` formats it once for the whole family.
    """
    v00 = np.arange(1, nx * ny + 1).reshape(ny, nx)[:-1, :-1]
    v10 = v00 + nx
    # per cell: f v00 v01 v11, then f v00 v11 v10
    faces = np.stack([v00, v00 + 1, v10 + 1, v00, v10 + 1, v10], axis=-1)
    face_row = b"f %d %d %d\n" * (2 * (nx - 1))
    return b"".join(face_row % tuple(row.ravel().tolist()) for row in faces)


# The vertex block's "%.12g" kernel.  A finite x with 1e-99 <= |x| < 1e99
# has the 12 significant digits M = rint(|x| * 10^(11 - X)), with
# 1e11 <= M < 1e12, at its decade X.  The power comes from a table of
# correctly rounded doubles, so the product is within 2 ulp of the exact
# |x| * 10^(11 - X): below 2.3e-4 for M < 1e12.  Where the product's
# fraction lies within 1e-3 of 1/2, that error could carry it across the
# rounding boundary, and Python's own "%.12g" formats the value.  So it
# does any value that is zero, not finite or outside that range, where a
# subnormal would break the error bound and an exponent could need three
# digits.  The decade is estimated from log and corrected from the scaled
# product, so no logarithm needs to be correctly rounded; a product that
# still lies outside [1e11, 1e12) goes to Python too.
#
# Each value is laid out in a 40-byte field that holds every character
# its text could need, in order, and a mask per layout keeps the ones it
# does need, so that one compaction drops the rest:
#
#   bytes 0-7    "v -0.000"      line head, separator, sign, and the "0."
#                                and zeros of a fixed value below 1
#   bytes 8-19   d0 .. d11       the digits of M
#   bytes 20-31  "." d1 .. d11   the point and the digits after it
#   bytes 32-35  "e+XX"          the exponent
#   byte  36     "\n"            line end
#
# The digits go in as little-endian 32-bit words.  A value that Python
# formats is copied over bytes 2-20 and kept by its length.  The kernel
# keeps to float arithmetic, casts, takes and masks: integer ufuncs would
# page in NumPy code that nothing else in a run uses, which shows as
# resident memory.  For the same reason the 80 KB of 4-digit tables are
# built for each mesh (about 0.07 ms) and not kept between meshes.
_FIELD = np.frombuffer(
    b"v -0.000" + b"0" * 12 + b"." + b"0" * 11 + b"e+00\n   ", np.uint8
)
_WIDTH = _FIELD.size
_CHUNK = 1024  # vertices per pass: the pass's arrays stay near 0.5 MB
_POW10_LO = -95  # the table holds 10^k for k = -95..115
_PYTHON = 17 * 26  # the first mask row of a value Python formats


def _group_tables():
    """The tables of the 4-digit groups g = 0..9999 of a 12-digit mantissa.

    digits: the "%04d" bytes of g as a little-endian 32-bit word.  last:
    the place (1 to 4) of the last nonzero digit of g, -99 for g = 0.
    """
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    last = np.full((10, 10, 10, 10), -99.0, np.float32)
    for place in range(4):
        shape = [1, 1, 1, 1]
        shape[place] = 10
        digits[..., place] = np.arange(48, 58, dtype=np.uint8).reshape(shape)
        # the groups whose digit at place is their last nonzero one
        nonzero_here = (slice(None),) * place + (slice(1, None),)
        last[nonzero_here + (0,) * (3 - place)] = place + 1
    return digits.reshape(10000, 4).view("<u4").ravel(), last.ravel()


@functools.cache
def _kernel_tables():
    """The kernel's other tables, built on its first use.

    pow10: 10^k for k = _POW10_LO..115, correctly rounded.  exponent:
    the "e+XX" bytes of X = -99..99 as little-endian 32-bit words.
    layout: 26 times the layout of X = -99..99 (below).  keep: the byte
    mask of each layout, row 26 * layout + 2 * nd + negative for layout
    X + 4 at a fixed X in -4..11 and 16 for exponential notation, with
    nd the count of significant digits; then row _PYTHON + L for a
    Python text of length L.  No row keeps the line head or the line
    end: the caller keeps them for the first and the last value of each
    line.
    """
    pow10 = np.array([float(f"1e{k}") for k in range(_POW10_LO, 116)])
    exponent = b"".join(b"e%+03d" % x for x in range(-99, 100))
    layout = np.full(199, 26.0 * 16)
    layout[99 - 4 : 99 + 12] = np.arange(0.0, 26.0 * 16, 26.0)

    x = np.arange(-4.0, 13.0).reshape(-1, 1, 1, 1)  # 12: exponential
    nd = np.arange(13.0).reshape(1, -1, 1, 1)
    fixed = x < 12
    below_one = fixed & (x < 0)  # "0." and -x - 1 zeros, then the digits
    has_point = ~below_one  # digits 0..point, then "." and the rest
    point = np.where(fixed, x, 0.0)
    k = np.arange(12.0)
    keep = np.zeros((17, 13, 2, _WIDTH), bool)
    keep[..., 1] = True
    keep[:, :, 1, 2] = True  # the sign of a negative value
    keep[..., 3:5] = below_one
    keep[..., 5:8] = below_one & (k[:3] < -x - 1)
    keep[..., 8:20] = (has_point & (k <= point)) | (below_one & (k < nd))
    keep[..., 20:21] = has_point & (nd > point + 1)
    keep[..., 21:32] = has_point & (k[1:] > point) & (k[1:] < nd)
    keep[..., 32:36] = ~fixed
    byte = np.arange(float(_WIDTH))
    python = (byte >= 1.0) & (byte <= np.arange(1.0, 21.0).reshape(-1, 1))
    return (
        pow10,
        np.frombuffer(exponent, "<u4"),
        layout,
        np.concatenate([keep.reshape(-1, _WIDTH), python]),
    )


def _vertex_chunk(block, field, digits, last):
    """The vertex lines of an (n, 3) block as a uint8 array.

    field is an (n, 3, _WIDTH) copy of _FIELD, which it leaves as it
    found it; digits and last are the `_group_tables`.
    """
    pow10, exponent, layout, keep_rows = _kernel_tables()
    a = np.abs(block)
    ok = (a >= 1e-99) & (a < 1e99)
    a[~ok] = 1.0
    x = np.floor(np.log(a) * 0.4342944819032518)  # log10(e)
    m = a * pow10.take((11 - _POW10_LO - x).astype(np.intp))
    x[m >= 1e12] += 1.0
    x[m < 1e11] -= 1.0
    m = a * pow10.take((11 - _POW10_LO - x).astype(np.intp))
    mantissa = np.rint(m)
    ok &= np.abs(m - mantissa) < 0.499
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    x[carry] += 1.0
    ok &= (mantissa >= 1e11) & (mantissa < 1e12)
    python = ~ok
    mantissa[python] = 0.0
    x[python] = 0.0
    # the three 4-digit groups, in exact float arithmetic
    hi = np.floor(mantissa / 1e8)
    mid = mantissa - hi * 1e8
    lo = mid - np.floor(mid / 1e4) * 1e4
    mid = (mid - lo) / 1e4
    hi, mid, lo = (g.astype(np.intp) for g in (hi, mid, lo))
    words = field.view("<u4")
    words[..., 2] = words[..., 5] = digits.take(hi)
    words[..., 3] = words[..., 6] = digits.take(mid)
    words[..., 4] = words[..., 7] = digits.take(lo)
    field[..., 20] = ord(".")
    x = (x + 99).astype(np.intp)
    words[..., 8] = exponent.take(x)
    # twice the count of significant digits: to the last nonzero one
    key = np.maximum(last.take(hi), last.take(mid) + 4.0)
    key = 2.0 * np.maximum(key, last.take(lo) + 8.0) + layout.take(x)
    key[np.signbit(block)] += 1.0
    key = key.astype(np.intp)
    redo = np.flatnonzero(python)
    if redo.size:
        texts = [b"%.12g" % value for value in block.ravel()[redo].tolist()]
        padded = b"".join(text.ljust(19) for text in texts)
        fields = field.reshape(-1, _WIDTH)
        fields[redo, 2:21] = np.frombuffer(padded, np.uint8).reshape(-1, 19)
        key.reshape(-1)[redo] = [_PYTHON + len(text) for text in texts]
    keep = keep_rows.take(key, axis=0)
    keep[:, 0, 0] = True
    keep[:, 2, 36] = True
    text = field[keep]
    if redo.size:
        fields[redo] = _FIELD
    return text


def _vertex_lines(coords):
    """Yield the OBJ vertex lines of an (n, 3) float array as byte chunks.

    Together they are b"v %.12g %.12g %.12g\\n" % tuple(row) for each row,
    byte for byte; negative zero is written "-0", as "%.12g" does.
    """
    fields = np.empty((min(len(coords), _CHUNK), 3, _WIDTH), np.uint8)
    fields[:] = _FIELD
    digits, last = _group_tables()
    for start in range(0, len(coords), _CHUNK):
        block = coords[start : start + _CHUNK]
        yield _vertex_chunk(block, fields[: len(block)], digits, last)


def export_obj(surface, path, faces=None):
    """Write a surface grid as an OBJ-style triangle mesh.

    Vertices appear in row-major node order, one grid row at a time, then
    the face block: faces, the bytes `obj_faces` returns for the grid, or
    formatted here when it is None.  Returns a MeshSummary; a 9x9 grid
    yields 81 vertices and 128 faces.
    """
    coords = surface.coords()
    coords += 0.0  # normalize -0.0
    ny, nx = coords.shape[:2]
    if faces is None:
        faces = obj_faces(nx, ny)
    with open(path, "wb") as fh:
        fh.writelines(_vertex_lines(coords.reshape(-1, 3)))
        fh.write(faces)
    return mesh_summary(path, nx, ny)


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

    The rows must cover a complete rectangular grid, in any order, each
    node once; raises SchemaError for a bad header, a non-numeric or
    non-finite cell (naming its line), an incomplete grid or duplicate
    rows.  Whether the axes can be differenced (node counts, uniform
    spacing, the range of the steps) is for verify_surface's grid gate.
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

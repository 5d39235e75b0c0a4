"""Property tests of the front end's contract: every input maps to an exit code.

(a) Run configurations built around a valid document, with keys dropped
or added and values replaced by NaN, infinities, zero, negative numbers
or values of the wrong type: `generate` and `solve-gauss` return one of
the documented exit codes and raise nothing.
(b) `check` with drawn tolerance flags on a vertical plane (a minimal
surface, residuals exactly 0) and a horizontal plane (not conformal):
exit 2 exactly when a flag breaks the tolerances.* rules of the config
(or the margin leaves no interior on the 17 x 17 grid), and never exit 0
on the horizontal plane.
(c) `check` on a valid 17 x 17 surface CSV with one edit of its content
(a cell made non-numeric, NaN, infinite or empty, a column added or
removed, a row dropped or duplicated, an axis value shifted, or a
coordinate replaced by another finite number): exit 2 exactly when the
edit breaks the documented CSV schema, else 0 or 4.
(d) `generate` on 9 x 9 windows of admissible data at the ends of the
float range (half-widths, |Q0| and t up to powers of ten near its
limits): exit 0, 2, 3 or 4, with no warning of any kind.
(e) A 17 x 17 constant-rho0 run in which one file a command writes is a
file it reads or another it writes, named by the same string, through
sub/.., a symbolic link or a hard link: exit 2 with that write's key,
and the working directory's listing and bytes are unchanged.

The inputs of (a)-(c) overflow on purpose, so those calls run under
np.errstate(all="ignore"); (d) runs without it, with every warning an
error.
"""

import json
import math
import operator
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsurf import cli, config
from nilsurf.outputs import write_surface_csv
from nilsurf.potentials import Potential
from nilsurf.residuals import MIN_STENCIL_NODES
from nilsurf.surface import SurfaceGrid, generate_surface

EXIT_CODES = {0, 2, 3, 4, 5}
GRID_NODES = 17

SOURCES = {
    "constant": {
        "q0_coefficients": [[0.25, 0.0]],
        "rho0": {"source": "constant", "value": 1.0},
    },
    "liouville": {"q0_coefficients": [0.0], "rho0": {"source": "liouville"}},
    "solved": {
        "q0_coefficients": [0.0, [0.25, 0.0]],
        "rho0": {"source": "solved", "bc": 0.0},
    },
}

#: Replacement values: non-finite, zero, negative, extreme, wrong type.
BAD_VALUES = [
    math.nan,
    math.inf,
    -math.inf,
    0,
    0.0,
    -1,
    -2.5,
    1e-300,
    -1e-300,
    1e20,
    1e300,
    "x",
    True,
    None,
    [],
    {},
]
HUGE_INT = 10**400
#: Node counts also draw the smallest count above config.MAX_NODES; each
#: must be refused before any grid is allocated.
COUNT_KEYS = ("nx", "ny")

FRONTEND = settings(max_examples=25, deadline=None)


def base_document(source, n):
    return {
        "potential": json.loads(json.dumps(SOURCES[source])),
        "domain": {
            "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": n, "ny": n,
        },
        "t_values": [0.0, 0.5],
        "tolerances": dict(config.DEFAULT_TOLERANCES),
        "outputs": dict(config.DEFAULT_OUTPUTS),
    }


def _paths(node, prefix=()):
    """Every (path to a container, key) of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    doc = base_document(
        draw(st.sampled_from(sorted(SOURCES))), draw(st.sampled_from([9, 13, 17]))
    )
    for _ in range(draw(st.integers(0, 3))):
        prefix, key = draw(st.sampled_from(list(_paths(doc))))
        parent = _at(doc, prefix)
        action = draw(st.sampled_from(["drop", "add", "set"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            parent["unexpected"] = 1
        else:
            values = BAD_VALUES + [HUGE_INT]
            if key in COUNT_KEYS:
                values = values + [config.MAX_NODES + 1]
            parent[key] = draw(st.sampled_from(values))
    return doc


def _run(argv):
    with np.errstate(all="ignore"):
        return cli.main(argv, log=lambda *_: None)


@FRONTEND
@given(doc=documents())
def test_any_document_maps_to_an_exit_code(doc):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        # relative output paths, including mutated ones, land in work
        os.chdir(work)
        try:
            with open("run.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert _run(["generate", "run.json"]) in EXIT_CODES
            assert _run(["solve-gauss", "run.json", "--out", "u.csv"]) in EXIT_CODES
        finally:
            os.chdir(cwd)


def _plane(kind):
    ax = (np.arange(GRID_NODES) - GRID_NODES // 2) * 0.125
    x2d, y2d = np.meshgrid(ax, ax)
    if kind == "vertical":
        return SurfaceGrid(x=ax, y=ax, t=0.0, F=x2d.astype(complex), height=y2d)
    return SurfaceGrid(
        x=ax, y=ax, t=0.0, F=x2d + 1j * y2d, height=np.zeros_like(x2d)
    )


@pytest.fixture(scope="module")
def plane_csvs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("planes")
    paths = {}
    for kind in ("vertical", "horizontal"):
        paths[kind] = str(directory / f"{kind}.csv")
        write_surface_csv(_plane(kind), paths[kind])
    return paths


def _breaks_rules(value, positive):
    return not math.isfinite(value) or (positive and value <= 0)


#: Valid floors up to 1e-2 and scales up to 1 keep the horizontal plane's
#: thresholds below its residuals (conformality 0.070 against at most
#: 2 h^2 = 0.031), so that surface must fail.
floors = st.one_of(
    st.floats(min_value=1e-300, max_value=1e-2),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
)
scales = st.one_of(
    st.floats(min_value=1e-300, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -3.0]),
)
cutoffs = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@FRONTEND
@given(
    kind=st.sampled_from(["vertical", "horizontal"]),
    margin=st.integers(-2, 9),
    cutoff=cutoffs,
    floor=floors,
    scale=scales,
)
def test_check_flags_follow_the_config_rules(
    plane_csvs, kind, margin, cutoff, floor, scale
):
    code = _run(
        [
            "check",
            plane_csvs[kind],
            f"--margin={margin}",
            f"--angle-cutoff={cutoff!r}",
            f"--residual-floor={floor!r}",
            f"--threshold-scale={scale!r}",
        ]
    )
    refused = (
        margin < 1
        # no interior left to check, or no node for the widest stencil
        or max(2 * margin + 3, MIN_STENCIL_NODES) > GRID_NODES
        or _breaks_rules(cutoff, positive=False)
        or _breaks_rules(floor, positive=True)
        or _breaks_rules(scale, positive=True)
    )
    if refused:
        assert code == 2
    else:
        # the vertical plane's angle function is 0 at every node: a
        # negative cutoff masks none, and on its Gauss map, which lies on
        # the unit circle, the tension has no finite value, so it fails
        assert code == (0 if kind == "vertical" and cutoff >= 0.0 else 4)


#: Cell texts the CSV schema refuses: not a number, or not finite.
BAD_CELLS = ["abc", "", " ", "1.0.0", "0x10", "nan", "NaN", "inf", "-inf", "Infinity"]
CSV_EDITS = (
    "cell", "value", "add_column", "drop_column", "drop_row", "duplicate_row",
    "shift_axis",
)
#: Axis step of the CSV's grid, 17 nodes on [-0.5, 0.5].
CSV_STEP = 1.0 / (GRID_NODES - 1)


@pytest.fixture(scope="module")
def surface_csv_rows(tmp_path_factory):
    """Header and split data rows of a generated 17 x 17 surface CSV."""
    axis = np.linspace(-0.5, 0.5, GRID_NODES)
    path = tmp_path_factory.mktemp("surface") / "surface.csv"
    write_surface_csv(
        generate_surface(Potential.constant(1.0, (0.25,)), axis, axis, 0.3), path
    )
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _edit_csv(draw, header, rows):
    """Apply one drawn edit in place; True when it breaks the CSV schema."""
    kind = draw(st.sampled_from(CSV_EDITS))
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        rows[r][draw(st.integers(0, 4))] = draw(st.sampled_from(BAD_CELLS))
    elif kind == "value":
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        rows[r][draw(st.integers(2, 4))] = repr(value)
        return False
    elif kind in ("add_column", "drop_column"):
        c = draw(st.integers(0, 4))
        for line in [header, *rows] if draw(st.booleans()) else [rows[r]]:
            if kind == "add_column":
                line.insert(c, "0.0")
            else:
                del line[c]
    elif kind == "drop_row":
        del rows[r]
    elif kind == "duplicate_row":
        rows.insert(r, list(rows[r]))
    else:
        c = draw(st.integers(0, 1))
        shift = draw(
            st.sampled_from([CSV_STEP, -CSV_STEP, CSV_STEP / 2, 3 * CSV_STEP, 1e-9])
        )
        rows[r][c] = repr(float(rows[r][c]) + shift)
    return True


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_csv_content_is_refused(surface_csv_rows, data):
    header = list(surface_csv_rows[0])
    rows = [list(row) for row in surface_csv_rows[1]]
    breaks = _edit_csv(data.draw, header, rows)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "edited.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(",".join(line) + "\n" for line in [header, *rows])
        code = _run(["check", path])
    if breaks:
        assert code == 2
    else:
        assert code in (0, 4)


#: Exit codes of `generate` on admissible data at the ends of the float
#: range: a refused window or t, a refused solve or gate, a refused frame
#: or surface, or a pass.
EXTREME_EXIT_CODES = {0, 2, 3, 4}


def _powers(low, high):
    """10^k for k drawn in [low, high]."""
    return st.integers(low, high).map(lambda k: 10.0**k)


@st.composite
def extreme_documents(draw):
    """A 9 x 9 generate run of admissible data at the ends of the float range.

    The constant pair rho0 = 4|c|, Q0 = c, or the solve of Q0 = c z with
    bc 0, on the window [-a, a]^2 at one t: a = 10^k for k in [-200, 300],
    |c| = 10^k for k in [-100, 200], and t = 0 or +-10^k for k in [0, 308].
    """
    half = draw(_powers(-200, 300))
    size = draw(_powers(-100, 200))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    c = [size * math.cos(angle), size * math.sin(angle)]
    t = draw(
        st.just(0.0)
        | st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _powers(0, 308))
    )
    if draw(st.booleans()):
        rho0 = {"source": "constant", "value": 4.0 * math.hypot(*c)}
        q0 = [c]
    else:
        rho0, q0 = {"source": "solved", "bc": 0.0}, [0.0, c]
    return {
        "potential": {"q0_coefficients": q0, "rho0": rho0},
        "domain": {
            "xmin": -half, "xmax": half, "ymin": -half, "ymax": half, "nx": 9, "ny": 9,
        },
        "t_values": [t],
        # one t and no {t}: the mesh's name stays short for any t
        "outputs": {"mesh": "mesh.obj", "report": "report.json"},
    }


@settings(max_examples=40, deadline=None)
@given(doc=extreme_documents())
def test_extreme_data_exits_without_a_warning(doc):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("run.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["generate", "run.json"], log=lambda *_: None)
        finally:
            os.chdir(cwd)
    assert code in EXTREME_EXIT_CODES


#: (command, the file named first, the key of the write that names it
#: again).  The first mesh is the member at t_values[0], the second at
#: t_values[1]; the roles' own names are those of ROLE_NAMES.
COLLISIONS = [
    ("generate", "config", "outputs.report"),
    ("generate", "config", "t_values[1]"),
    ("generate", "mesh", "t_values[1]"),
    ("generate", "mesh", "outputs.report"),
    ("solve-gauss", "config", "outputs.solution"),
    ("solve-gauss", "config", "--out"),
    ("check", "csv", "--report"),
]
ROLE_NAMES = {"config": "run.json", "csv": "plane.csv", "mesh": "m_0.000000.obj"}
ROLE_DESCRIPTIONS = {
    "config": "the configuration file",
    "csv": "the surface CSV",
    "mesh": "the mesh path of t_values[0]",
}


@st.composite
def collisions(draw):
    """A colliding pair, its spelling, and how its paths are written."""
    command, first, key = draw(st.sampled_from(COLLISIONS))
    spellings = ["same", "symlink", "hardlink"]
    if (first, key) != ("mesh", "t_values[1]"):
        # one mesh pattern spells both meshes the same way
        spellings.append("sub/..")
    return {
        "command": command,
        "first": first,
        "key": key,
        "spelling": draw(st.sampled_from(spellings)),
        "root": draw(st.sampled_from(["", "absolute"])),
        "first_exists": draw(st.booleans()),
    }


def _lay_out(case):
    """Write the run's files in the working directory; returns (argv, alias)."""
    root = os.getcwd() + os.sep if case["root"] else ""
    first, key, spelling = case["first"], case["key"], case["spelling"]
    os.mkdir("sub")
    write_surface_csv(_plane("vertical"), "plane.csv")
    doc = base_document("constant", GRID_NODES)  # t_values [0.0, 0.5]
    doc["outputs"] = {
        "mesh": root + "m_{t}.obj",
        "report": "report.json",
        "solution": "solution.csv",
    }
    config_name = ROLE_NAMES["config"]
    if (first, key) == ("config", "t_values[1]") and not spelling.endswith("link"):
        config_name = "m_0.500000.obj"  # the second mesh's own name
    Path(config_name).touch()  # a link to it sees the document written below
    target = config_name if first == "config" else ROLE_NAMES[first]
    if first == "mesh" and (case["first_exists"] or spelling.endswith("link")):
        Path(target).write_text("an earlier mesh\n")
    link = "m_0.500000.obj" if key == "t_values[1]" else "alias.out"
    if spelling == "symlink":
        os.symlink(target, link)
    elif spelling == "hardlink":
        os.link(target, link)
    named = link if spelling.endswith("link") else target
    if spelling == "sub/..":
        named = "sub/../" + named
    if key == "t_values[1]":
        if first == "mesh" and spelling == "same":
            doc["t_values"] = [0.0, 1e-7]  # {t} keeps six decimals
        else:
            doc["outputs"]["mesh"] = root + named.replace("0.500000", "{t}")
        alias = config.mesh_path(doc["outputs"]["mesh"], doc["t_values"][1])
    else:
        alias = root + named
    if key in ("outputs.report", "outputs.solution"):
        doc["outputs"][key.split(".")[1]] = alias
    with open(config_name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if case["command"] == "check":
        return ["check", root + "plane.csv", "--report", alias], alias
    argv = [case["command"], root + config_name]
    return (argv + ["--out", alias] if key == "--out" else argv), alias


def _listing():
    """Every entry under the working directory: its link target and bytes."""
    entries = {}
    for folder, dirs, files in os.walk("."):
        for name in dirs + files:
            path = os.path.join(folder, name)
            entries[path] = (
                os.path.islink(path) and os.readlink(path),
                os.path.isfile(path) and Path(path).read_bytes(),
            )
    return entries


@settings(max_examples=30, deadline=None)
@given(case=collisions())
def test_a_write_that_names_another_file_exits_2(case):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            argv, alias = _lay_out(case)
            before = _listing()
            lines = []
            code = cli.main(argv, log=lines.append)
            after = _listing()
        finally:
            os.chdir(cwd)
    what = ROLE_DESCRIPTIONS[case["first"]]
    assert code == 2
    assert lines == [f"error: {case['key']}: {alias!r} is {what}"]
    assert after == before

"""The one axis rule of the stencils (stencils.axis_steps) and its consumers.

The residual check, the density solve and the solved density source each
difference their axes with one step.  Each must refuse an axis exactly
when axis_steps refuses it at that consumer's tolerance: the check at
residuals.UNIFORM_SPACING_RTOL, the solve and the source at
pde.SPACING_RTOL; the source also refuses an axis that does not increase.
"""

import ast
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsurf import pde, residuals, stencils
from nilsurf.errors import DomainError, PotentialDataError
from nilsurf.potentials import Potential
from nilsurf.surface import SurfaceGrid

SRC = Path(__file__).resolve().parents[1] / "src" / "nilsurf"


def refuses(axis, rtol):
    """Whether stencils.axis_steps refuses axis at rtol."""
    try:
        stencils.axis_steps(axis, rtol, "x")
    except DomainError:
        return True
    return False


@st.composite
def drawn_axes(draw):
    """k * step on 7 to 33 nodes, step of either sign and of any magnitude
    square_in_range admits; maybe one node moved by delta * step (delta
    from 1e-14 to 1e-2), and maybe one node NaN or a repeat of the one
    before it."""
    n = draw(st.integers(7, 33))
    sign = st.sampled_from([-1.0, 1.0])
    step = draw(sign) * 10.0 ** draw(st.floats(-154.0, 154.0))
    axis = step * np.arange(n, dtype=float)
    if draw(st.booleans()):
        delta = draw(sign) * 10.0 ** draw(st.floats(-14.0, -2.0))
        axis[draw(st.integers(0, n - 1))] += delta * step
    edit = draw(st.sampled_from(["none", "nan", "repeat"]))
    j = draw(st.integers(1, n - 1))
    if edit == "nan":
        axis[j] = np.nan
    elif edit == "repeat":
        axis[j] = axis[j - 1]
    return axis


def check_refuses(axis):
    """verify_surface on the vertical plane F = x, h = y over axis x axis."""
    x2d, y2d = np.meshgrid(axis, axis)
    plane = SurfaceGrid(x=axis, y=axis, t=0.0, F=x2d + 0j, height=y2d)
    try:
        residuals.verify_surface(plane)
    except DomainError:
        return True
    return False


def solve_refuses(axis):
    """newton_solve on square cells; NaN samples of Q0 stop an accepted
    grid at PotentialDataError before the solve begins."""
    q0 = np.full((axis.size, axis.size), np.nan)
    with pytest.raises((DomainError, PotentialDataError)) as info:
        pde.newton_solve(q0, 0.0, axis, axis)
    return info.type is DomainError


def source_refuses(axis):
    u = np.zeros((axis.size, axis.size))
    solution = types.SimpleNamespace(x=axis, y=axis, u=u, residual_field=u)
    try:
        Potential.solved(solution, (0.25,))
    except PotentialDataError:
        return True
    return False


@settings(max_examples=50, deadline=None)
@given(axis=drawn_axes())
def test_each_consumer_refuses_exactly_what_the_rule_refuses(axis):
    assert check_refuses(axis) == refuses(axis, residuals.UNIFORM_SPACING_RTOL)
    assert solve_refuses(axis) == refuses(axis, pde.SPACING_RTOL)
    decreasing = not refuses(axis, pde.SPACING_RTOL) and axis[1] < axis[0]
    assert source_refuses(axis) == (refuses(axis, pde.SPACING_RTOL) or decreasing)


class TestAxisSteps:
    def test_returns_the_first_and_the_signed_mean_step(self):
        axis = np.array([0.0, -0.1, -0.2, -0.30000000000000004])
        first, mean = stencils.axis_steps(axis, 1e-12, "x")
        assert first == -0.1
        assert mean == (axis[-1] - axis[0]) / 3

    def test_a_step_at_rtol_is_kept_and_one_past_it_refused(self):
        # steps 1 + 2^-21 and 1 - 2^-21 about a mean of 1, all exact
        axis = np.arange(9.0)
        axis[4] += 2.0**-21
        assert stencils.axis_steps(axis, 2.0**-21, "x") == (1.0, 1.0)
        with pytest.raises(DomainError, match="x axis is not uniformly spaced"):
            stencils.axis_steps(axis, math.nextafter(2.0**-21, 0.0), "x")

    @pytest.mark.parametrize(
        "axis, message",
        [
            ([0.0, 1.0, np.inf], "a node is not finite"),
            ([0.0, np.nan, 2.0], "a node is not finite"),
            ([1.0, 1.0, 1.0], "deviates from the mean 0 by 0"),
            ([-1.5e308, 0.0, 1.5e308], "deviates from the mean inf"),
            ([0.0, 1e-170, 2e-170], r"step 1e-170 is out of range: h\^2"),
        ],
        ids=["inf", "nan", "repeated", "overflowing-mean", "square-underflows"],
    )
    def test_refusals_name_the_axis_without_a_warning(self, axis, message):
        with pytest.raises(DomainError, match=f"solver y axis .*{message}"):
            stencils.axis_steps(axis, 1e-12, "solver y")


def imported_modules(path):
    """The module names a source file imports, relative ones without dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names if not node.module)
    return names


def test_the_stencils_import_only_numpy_and_errors():
    assert imported_modules(SRC / "stencils.py") == {"math", "numpy", "errors"}


def test_the_oracle_keeps_its_own_stencils():
    # tests/residual_oracle.py is what the program's stencils are held to
    # bit for bit; importing them would compare the program with itself
    oracle = Path(__file__).with_name("residual_oracle.py")
    assert not any("stencils" in name for name in imported_modules(oracle))

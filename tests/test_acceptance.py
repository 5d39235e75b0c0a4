"""Acceptance suite: the eight shipped guarantees, with tolerances pinned.

Each test is one guarantee; `pytest -v tests/test_acceptance.py` therefore
prints one pass/fail line per criterion, and running with -s additionally
shows the measured numbers behind each verdict.  The guarantees:

  1. The coupled RK4 frame march reproduces the closed-form matrix
     exponential (and its first two family-parameter derivatives, via
     block-augmented exponentials) for the constant potential.
  2. Every differential-geometry residual class converges at second
     order under grid refinement, for both an analytic and a solved
     potential, and is small at the finest grid.
  3. Soundness in both directions: an exactly-minimal plane passes at
     roundoff, a non-conformal plane produces the hand-derived residual
     and is rejected.
  4. The Newton/CG density solver reproduces the Liouville closed form
     at second order in few iterations.
  5. Structural invariants of the integration: unit determinant, shape
     invariants, exact base point, pi-periodicity, path independence
     with fourth-order decay.
  6. Associated-family coherence: density fields of family members agree
     under the domain rotation induced by the family phase at machine
     precision, |Q| is pointwise t-invariant to O(h^2), and the discrete
     matrix-Laplace identity for the auxiliary field holds at O(h^2).
  7. The geometry kernel is exact at machine precision on random points:
     the model's frame, metric, connection table and group law, and the
     program's vertical form and covariant derivative against them.
  8. The flagship pipeline run is bitwise deterministic.
"""

import functools
import json
import time

import numpy as np
import pytest
import scipy.linalg

import nil3_model as model
from march_reference import reference_march
from nil3_model import planes, stack
from nilsurf import mat2, nil3
from nilsurf.config import parse_config
from nilsurf.frame import connection_at, integrate_grid
from nilsurf.pde import newton_solve
from nilsurf.pipeline import build_potential, run_generate
from nilsurf.potentials import Potential, liouville_exact
from nilsurf.residuals import (
    RESIDUAL_KEYS,
    classify_report,
    residual_thresholds,
    verify_surface,
)
from nilsurf.surface import SurfaceGrid, generate_surface

#: residual values below this are roundoff-dominated; convergence orders
#: are meaningless there and the order check is skipped.
MACHINE_FLOOR = 1e-10

#: pointwise t-invariance of |Q| across the family: |max diff| <= C_Q h^2
#: (measured constant ~0.009; pinned with ~5x headroom).
QUAD_DIFF_INVARIANCE_COEFF = 0.05

#: discrete matrix-Laplace identity residual <= C_L h^2 (measured
#: constant ~0.02 for both flagship potentials; matches the pipeline's
#: threshold coefficient).
FHAT_IDENTITY_COEFF = 0.5

T_BY_KEY = {"0": 0.0, "pi/4": np.pi / 4, "pi/2": np.pi / 2}


def dyadic_axis(n, half):
    """Symmetric axis with exactly representable spacing for dyadic half."""
    return np.arange(-(n // 2), n // 2 + 1) * (2.0 * half / (n - 1))


@functools.lru_cache(maxsize=None)
def constant_potential():
    return Potential.constant(1.0, (0.25,))


@functools.lru_cache(maxsize=None)
def solved_potential(n):
    """The potential generate builds for Q0 = z/4, bc 0 on [-0.5, 0.5]^2.

    The default solver grid (2n - 1 nodes on [-1, 1]^2, dyadic like the
    surface axes) and the fourth-order solve of build_potential.
    """
    doc = {
        "potential": {
            "q0_coefficients": [0.0, [0.25, 0.0]],
            "rho0": {"source": "solved", "bc": 0.0},
        },
        "domain": {
            "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
            "nx": n, "ny": n,
        },
    }
    return build_potential(parse_config(json.dumps(doc)))[0]


@functools.lru_cache(maxsize=None)
def verified_member(source, n, tkey):
    """Generate and verify one family member on [-0.5, 0.5]^2, cached."""
    pot = constant_potential() if source == "constant" else solved_potential(n)
    x = dyadic_axis(n, 0.5)
    surf = generate_surface(pot, x, x, T_BY_KEY[tkey])
    report = verify_surface(surf, potential=pot, keep_fields=True)
    return surf, report


def interior_max(field, margin=2):
    return float(np.nanmax(np.abs(field[margin:-margin, margin:-margin])))


def exponential_oracle(potential, z, t):
    """Closed-form frame triple for a constant potential.

    With constant connection matrices U, V the frame is exp(zU + conj(z)V);
    its first two t-derivatives are the (1,2) and twice the (1,3) blocks of
    the exponential of the block upper-triangular augmentation
    [[M, M_t, M_tt/2], [0, M, M_t], [0, 0, M]].
    """
    pair = connection_at(potential, np.asarray(0.0j), t)
    u, v = pair.u, pair.v
    u_t = np.zeros((2, 2), complex)
    u_t[1, 0] = 2j * u[1, 0]
    u_tt = np.zeros((2, 2), complex)
    u_tt[1, 0] = -4.0 * u[1, 0]
    v_t = np.zeros((2, 2), complex)
    v_t[0, 1] = -2j * v[0, 1]
    v_tt = np.zeros((2, 2), complex)
    v_tt[0, 1] = -4.0 * v[0, 1]
    m = z[..., None, None] * u + np.conj(z)[..., None, None] * v
    m_t = z[..., None, None] * u_t + np.conj(z)[..., None, None] * v_t
    m_tt = z[..., None, None] * u_tt + np.conj(z)[..., None, None] * v_tt
    big = np.zeros(z.shape + (6, 6), complex)
    for k in range(3):
        big[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = m
    big[..., 0:2, 2:4] = m_t
    big[..., 2:4, 4:6] = m_t
    big[..., 0:2, 4:6] = m_tt / 2.0
    e = scipy.linalg.expm(big)
    return e[..., 0:2, 0:2], e[..., 0:2, 2:4], 2.0 * e[..., 0:2, 4:6]


def announce(num, detail):
    print(f"\n[criterion {num}/8] PASS — {detail}", flush=True)


def test_criterion_1_frame_matches_exponential_oracle():
    start = time.perf_counter()
    pot = constant_potential()
    x = dyadic_axis(65, 1.0)
    z = x[None, :] + 1j * x[:, None]
    worst = {"psi": 0.0, "psi_t": 0.0, "psi_tt": 0.0}
    for t in (0.0, np.pi / 4, np.pi / 2):
        field = integrate_grid(pot, x, x, t)
        psi, psi_t, psi_tt = exponential_oracle(pot, z, t)
        worst["psi"] = max(worst["psi"], float(np.max(np.abs(field.psi - psi))))
        worst["psi_t"] = max(
            worst["psi_t"], float(np.max(np.abs(field.psi_t - psi_t)))
        )
        worst["psi_tt"] = max(
            worst["psi_tt"], float(np.max(np.abs(field.psi_tt - psi_tt)))
        )
    elapsed = time.perf_counter() - start
    assert worst["psi"] <= 1e-9, worst
    assert worst["psi_t"] <= 1e-7, worst
    assert worst["psi_tt"] <= 1e-7, worst
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    announce(
        1,
        f"frame {worst['psi']:.2e} <= 1e-9, d/dt {worst['psi_t']:.2e} and "
        f"d2/dt2 {worst['psi_tt']:.2e} <= 1e-7 on 65x65 x3 t-values "
        f"({elapsed:.1f}s < 5s)",
    )


def test_criterion_2_residuals_refine_at_second_order():
    start = time.perf_counter()
    classes = [k for k in RESIDUAL_KEYS if k != "fhat_laplace_identity"]
    details = []
    for source in ("constant", "solved"):
        series = {
            n: verified_member(source, n, "0")[1].maxima for n in (33, 65, 129)
        }
        finest = max(v for v in series[129].values() if not np.isnan(v))
        orders = []
        for key in classes:
            v33, v65, v129 = (series[n][key] for n in (33, 65, 129))
            assert v129 <= 1e-3, (source, key, v129)
            if v129 < MACHINE_FLOOR:
                continue  # roundoff-dominated; no meaningful order
            assert v33 > v65 > v129, (source, key, v33, v65, v129)
            order = np.log2(v65 / v129)
            orders.append(order)
            assert order >= 1.8, (source, key, order)
        details.append(
            f"{source}: worst residual at 129^2 {finest:.2e} <= 1e-3, "
            f"min order {min(orders):.2f} >= 1.8"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    announce(2, "; ".join(details) + f" ({elapsed:.1f}s < 60s)")


def _plane(kind, n=17):
    ax = np.arange(-(n // 2), n // 2 + 1) * 0.125
    x2d, y2d = np.meshgrid(ax, ax)
    if kind == "vertical":
        return SurfaceGrid(
            x=ax, y=ax, t=0.0,
            F=x2d.astype(complex), height=y2d.copy(), aux_height=-x2d,
        )
    return SurfaceGrid(x=ax, y=ax, t=0.0, F=x2d + 1j * y2d,
                       height=np.zeros_like(x2d))


def test_criterion_3_soundness_accepts_and_rejects():
    thresholds = residual_thresholds(0.125)

    vertical = verify_surface(_plane("vertical"))
    worst = 0.0
    for key in RESIDUAL_KEYS:
        value = vertical.maxima[key]
        if not np.isnan(value):
            assert value <= 1e-10, (key, value)
            worst = max(worst, value)
    passed, _ = classify_report(vertical, thresholds)
    assert passed

    horizontal = verify_surface(_plane("horizontal"), keep_fields=True)
    r1 = horizontal.fields["minimality_horizontal"]
    ax = _plane("horizontal").x
    z = ax[None, :] + 1j * ax[:, None]
    r1_error = interior_max(r1 - (-z / 8.0), margin=1)
    assert r1_error <= 1e-10, r1_error
    passed, failures = classify_report(horizontal, thresholds)
    assert not passed
    assert "conformality" in {key for key, _, _ in failures}
    announce(
        3,
        f"vertical plane residuals <= {worst:.1e} (tol 1e-10) and accepted; "
        f"horizontal plane matches -z/8 within {r1_error:.1e} and is "
        f"rejected (conformality over threshold)",
    )


def test_criterion_4_density_solver_regression():
    start = time.perf_counter()
    errors = {}
    iterations = {}
    for n in (65, 129):
        xs = dyadic_axis(n, 0.6)
        z = xs[None, :] + 1j * xs[:, None]
        exact = np.log(liouville_exact(z))
        result = newton_solve(np.zeros(z.shape, complex), exact, xs, xs)
        errors[n] = float(np.max(np.abs(result.u - exact)))
        iterations[n] = result.newton_iterations
    order = float(np.log2(errors[65] / errors[129]))
    elapsed = time.perf_counter() - start
    assert errors[129] <= 5e-4, errors
    assert 1.7 <= order <= 2.3, order
    assert max(iterations.values()) <= 8, iterations
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    announce(
        4,
        f"Liouville closed form reproduced to {errors[129]:.2e} <= 5e-4 at "
        f"h=1.2/128, order {order:.2f} in [1.7, 2.3], Newton iterations "
        f"{max(iterations.values())} <= 8 ({elapsed:.1f}s < 30s)",
    )


def test_criterion_5_structural_invariants():
    pot = Potential.liouville()
    x = dyadic_axis(129, 0.6)

    # The program marches rows first, one RK4 step per segment.  The
    # column-major and two-substep marches come from the reference march
    # of the tests, the program's kernel stepped node by node, which on
    # the program's path gives the program's frames bit for bit.
    row = integrate_grid(pot, x, x, 0.7)
    (reference,) = reference_march(pot, x, x, [0.7])
    for got, want in zip((row.psi, row.psi_t, row.psi_tt), reference):
        assert np.array_equal(got, want)
    (col,) = reference_march(pot, x, x, [0.7], "column-major")
    d1 = float(np.max(np.abs(row.psi - col[0])))
    (row2,) = reference_march(pot, x, x, [0.7], "row-major", 2)
    (col2,) = reference_march(pot, x, x, [0.7], "column-major", 2)
    d2 = float(np.max(np.abs(row2[0] - col2[0])))
    decay_order = float(np.log2(d1 / d2))
    assert d1 <= 1e-8, d1
    assert decay_order >= 3.9, decay_order
    det_deviation = float(np.max(np.abs(mat2.det(mat2.entries(row.psi)) - 1.0)))
    assert det_deviation <= 1e-8

    surf = generate_surface(pot, x, x, 0.7)
    assert surf.shape_deviation <= 1e-6
    assert surf.det_deviation <= 1e-8
    center = 129 // 2
    assert surf.F[center, center] == 0.0
    assert surf.height[center, center] == 0.0
    assert surf.aux_height[center, center] == pytest.approx(2.0)

    xs = dyadic_axis(33, 0.6)
    base = integrate_grid(pot, xs, xs, 0.7)
    shifted = integrate_grid(pot, xs, xs, 0.7 + np.pi)
    periodicity = float(np.max(np.abs(base.psi - shifted.psi)))
    assert periodicity <= 1e-12, periodicity

    announce(
        5,
        f"path independence {d1:.2e} <= 1e-8 with decay order "
        f"{decay_order:.2f} >= 3.9; det deviation {det_deviation:.1e}; "
        f"shape deviation {surf.shape_deviation:.1e}; base node exact; "
        f"pi-periodicity {periodicity:.1e}",
    )


def test_criterion_6_associated_family_coherence():
    details = []
    # The family phase multiplies Q0 by exp(2it); for a monomial
    # Q0 = c z^m that equals pulling the potential back along the domain
    # rotation z -> exp(i theta) z with (m + 2) theta = 2t.  The member
    # at t = pi/2 is therefore the base surface reparameterized by a
    # quarter turn (constant Q0) or a half turn (linear Q0), and its
    # measured density field must match the base field under that exact
    # grid rotation --- far below the h^2 truncation scale.
    for source, quarter_turns in (("constant", 1), ("solved", 2)):
        for n in (33, 65):
            h = 1.0 / (n - 1)
            _, base = verified_member(source, n, "0")
            _, rotated = verified_member(source, n, "pi/2")
            rho0 = base.fields["metric_density"]
            rho2 = rotated.fields["metric_density"]
            aligned = interior_max(np.rot90(rho2, quarter_turns) - rho0)
            assert aligned <= 1e-12, (source, n, aligned)

            q_invariance = interior_max(
                np.abs(rotated.fields["quadratic_differential"])
                - np.abs(base.fields["quadratic_differential"])
            )
            assert q_invariance <= QUAD_DIFF_INVARIANCE_COEFF * h * h, (
                source, n, q_invariance,
            )
        fhat_values = {
            n: verified_member(source, n, "0")[1].maxima[
                "fhat_laplace_identity"
            ]
            for n in (33, 65)
        }
        for n, value in fhat_values.items():
            h = 1.0 / (n - 1)
            assert value <= FHAT_IDENTITY_COEFF * h * h, (source, n, value)
        fhat_order = float(np.log2(fhat_values[33] / fhat_values[65]))
        assert fhat_order >= 1.8, (source, fhat_order)
        details.append(
            f"{source}: rotation-aligned density diff {aligned:.1e} <= "
            f"1e-12, |Q| drift {q_invariance:.1e} <= {QUAD_DIFF_INVARIANCE_COEFF}"
            f"*h^2, matrix-Laplace identity order {fhat_order:.2f}"
        )
    announce(6, "; ".join(details))


def test_criterion_7_geometry_kernel_is_exact():
    rng = np.random.default_rng(2026)
    p = rng.standard_normal((100, 3)) * 5.0
    q = rng.standard_normal((100, 3)) * 5.0

    frames = model.frame_at(p)
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(
                model.metric_at(p, frames[:, i], frames[:, j]),
                float(i == j),
            )

    np.testing.assert_array_equal(
        model.left_translation_differential(p[:, None, :], model.frame_at(q)),
        model.frame_at(model.group_mul(p, q)),
    )

    table = model.CONNECTION_TABLE
    np.testing.assert_array_equal(table + table.transpose(0, 2, 1), 0.0)
    brackets = np.zeros((3, 3, 3))
    brackets[0, 1, 2] = 1.0
    brackets[1, 0, 2] = -1.0
    np.testing.assert_array_equal(table - table.transpose(1, 0, 2), brackets)

    # The program's kernel on the same points.  Frame coefficients of a
    # coordinate vector are (u1, u2, theta(u)); on the frame rows they are
    # the standard basis, so the model frame is orthonormal in the
    # program's vertical form too.
    basis = np.eye(3)
    for j in range(3):
        np.testing.assert_array_equal(
            frames[:, j, :2], np.broadcast_to(basis[j, :2], (p.shape[0], 2))
        )
        np.testing.assert_array_equal(
            nil3.vertical_form(planes(p), planes(frames[:, j])), basis[j, 2]
        )
    # nabla_{E_i} E_j in the program's six-term form is the table entry
    zero = np.zeros(p.shape)
    for i in range(3):
        for j in range(3):
            got = nil3.covariant_derivative(
                planes(np.broadcast_to(basis[i], p.shape)),
                planes(np.broadcast_to(basis[j], p.shape)),
                planes(zero),
            )
            np.testing.assert_array_equal(
                stack(got), np.broadcast_to(table[i, j], p.shape)
            )

    announce(
        7,
        "orthonormality and left-invariance exact at 100 random points; "
        "connection metric-compatible and torsion-free exactly; the "
        "program's vertical form and covariant derivative reproduce the "
        "frame coefficients and the connection table exactly",
    )


def test_criterion_8_flagship_run_is_deterministic(tmp_path):
    doc = {
        "potential": {
            "q0_coefficients": [0.0, [0.25, 0.0]],
            "rho0": {"source": "solved", "bc": 0.0},
        },
        "domain": {
            "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
            "nx": 33, "ny": 33,
        },
        "outputs": {
            "mesh": str(tmp_path / "flagship_t{t}.obj"),
            "report": str(tmp_path / "report.json"),
            "solution": str(tmp_path / "solution.csv"),
        },
    }
    cfg = parse_config(json.dumps(doc))
    code, report = run_generate(cfg, log=lambda *_: None)
    assert code == 0
    assert report["pass"] is True
    mesh_paths = [entry["mesh_path"] for entry in report["surfaces"]]
    assert len(mesh_paths) == 3  # default family sweep
    first = {path: open(path, "rb").read() for path in mesh_paths}
    first_report = (tmp_path / "report.json").read_bytes()

    code, _ = run_generate(cfg, log=lambda *_: None)
    assert code == 0
    for path, blob in first.items():
        assert open(path, "rb").read() == blob, f"mesh bytes changed: {path}"
    assert (tmp_path / "report.json").read_bytes() == first_report

    announce(
        8,
        f"two flagship runs gave bitwise-identical report and "
        f"{len(mesh_paths)} meshes",
    )

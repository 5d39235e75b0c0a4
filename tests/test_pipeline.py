"""End-to-end pipeline tests: thresholds, exit codes, CLI subcommands."""

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import nilsurf
from nilsurf import cli, pde, pipeline, residuals
from nilsurf.residuals import RESIDUAL_KEYS
from nilsurf.config import parse_config
from nilsurf.errors import (
    DegenerateNode,
    DomainError,
    MaxIterExceeded,
    NonFlatInput,
    PoleError,
    SchemaError,
    ShapeViolation,
)
from nilsurf.outputs import read_obj, write_surface_csv
from nilsurf.potentials import Potential
from nilsurf.surface import SurfaceGrid, generate_surface


def make_config(tmp_path, **overrides):
    doc = {
        "potential": {
            "q0_coefficients": [[0.25, 0.0]],
            "rho0": {"source": "constant", "value": 1.0},
        },
        "domain": {
            "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
            "nx": 17, "ny": 17,
        },
        "t_values": [0.0],
        "outputs": {
            "mesh": str(tmp_path / "surface.obj"),
            "report": str(tmp_path / "report.json"),
            "solution": str(tmp_path / "solution.csv"),
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return parse_config(json.dumps(doc))


def dyadic_plane(kind, n=17):
    ax = np.arange(-(n // 2), n // 2 + 1) * 0.125
    x2d, y2d = np.meshgrid(ax, ax)
    if kind == "vertical":
        f = x2d.astype(complex)
        h = y2d.copy()
    else:  # horizontal: not conformal, must be rejected
        f = x2d + 1j * y2d
        h = np.zeros_like(x2d)
    return SurfaceGrid(x=ax, y=ax, t=0.0, F=f, height=h)


class TestThresholds:
    def test_quadratic_law(self):
        th = pipeline.residual_thresholds(0.1)
        assert th["conformality"] == pytest.approx(2.0 * 0.01)
        assert th["gauss_map_tension"] == pytest.approx(0.25 * 0.01)
        assert set(th) == set(pipeline.THRESHOLD_COEFFS)

    def test_floor_engages_on_fine_grids(self):
        th = pipeline.residual_thresholds(1e-6)
        assert all(v == 1e-10 for v in th.values())
        th = pipeline.residual_thresholds(1e-6, floor=1e-14)
        assert th["conformality"] == pytest.approx(2e-12)

    def test_scale_multiplies(self):
        base = pipeline.residual_thresholds(0.1)
        scaled = pipeline.residual_thresholds(0.1, scale=3.0)
        for key in base:
            assert scaled[key] == pytest.approx(3.0 * base[key])


class TestClassifyReport:
    def _report(self, **maxima):
        # coordinate classes default to a clean 0.0, the rest to NaN
        full = {
            key: 0.0 if key in residuals.COORDINATE_KEYS else float("nan")
            for key in pipeline.THRESHOLD_COEFFS
        }
        full.update(maxima)
        return types.SimpleNamespace(maxima=full)

    def test_all_nan_fails_on_coordinate_classes(self):
        # every surface has the data for the coordinate classes, so a NaN
        # there means no finite interior value, not "not computable"
        thresholds = pipeline.residual_thresholds(0.1)
        report = self._report(**{key: float("nan") for key in RESIDUAL_KEYS})
        passed, failures = pipeline.classify_report(report, thresholds)
        assert not passed
        assert [key for key, _, _ in failures] == list(residuals.COORDINATE_KEYS)
        assert all(math.isnan(value) for _, value, _ in failures)

    def test_nan_outside_coordinate_classes_is_skipped(self):
        # auxiliary data missing, Gauss map masked by the angle cutoff
        thresholds = pipeline.residual_thresholds(0.1)
        passed, failures = pipeline.classify_report(self._report(), thresholds)
        assert passed and failures == []

    def test_single_failure_reported_with_threshold(self):
        thresholds = pipeline.residual_thresholds(0.1)
        report = self._report(conformality=1.0, hopf_holomorphy=1e-12)
        passed, failures = pipeline.classify_report(report, thresholds)
        assert not passed
        assert failures == [("conformality", 1.0, thresholds["conformality"])]

    def test_value_at_threshold_passes(self):
        thresholds = pipeline.residual_thresholds(0.1)
        report = self._report(conformality=thresholds["conformality"])
        passed, failures = pipeline.classify_report(report, thresholds)
        assert passed


class TestExitCodes:
    def test_mapping(self):
        cases = [
            (SchemaError("p", "m"), pipeline.EXIT_CONFIG),
            (DomainError("m"), pipeline.EXIT_CONFIG),
            (NonFlatInput("m"), pipeline.EXIT_INTEGRABILITY),
            (MaxIterExceeded(3, 1.0, 1e-10), pipeline.EXIT_INTEGRABILITY),
            (ShapeViolation("m"), pipeline.EXIT_RESIDUAL),
            (DegenerateNode("m"), pipeline.EXIT_RESIDUAL),
            (PoleError("m"), pipeline.EXIT_RESIDUAL),
            (OSError("m"), pipeline.EXIT_IO),
        ]
        for exc, code in cases:
            assert pipeline.exit_code_for(exc) == code

    def test_unknown_exception_propagates(self):
        with pytest.raises(KeyError):
            pipeline.exit_code_for(KeyError("boom"))


class TestRunGenerate:
    def test_flagship_constant_potential_passes(self, tmp_path):
        cfg = make_config(tmp_path)
        lines = []
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert code == pipeline.EXIT_PASS
        assert report["schema"] == "nilsurf-report/1"
        assert report["pass"] is True
        assert report["solver"] is None
        assert len(report["surfaces"]) == 1
        entry = report["surfaces"][0]
        assert entry["pass"] is True and entry["failures"] == []
        assert entry["mesh"] == {"vertices": 289, "faces": 512}
        verts, faces = read_obj(entry["mesh_path"])
        assert verts.shape == (289, 3) and faces.shape == (512, 3)
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["schema"] == "nilsurf-report/1"
        assert any("PASS" in line for line in lines)

    def test_deterministic_outputs(self, tmp_path):
        cfg = make_config(tmp_path)
        pipeline.run_generate(cfg, log=lambda *_: None)
        first_report = (tmp_path / "report.json").read_bytes()
        first_mesh = (tmp_path / "surface.obj").read_bytes()
        pipeline.run_generate(cfg, log=lambda *_: None)
        assert (tmp_path / "report.json").read_bytes() == first_report
        assert (tmp_path / "surface.obj").read_bytes() == first_mesh

    def test_inadmissible_potential_exits_3(self, tmp_path):
        # Q0 = 0 is far from admissible; Q0 = 1/4 + 4e-6 leaves an
        # integrability residual of 4e-6, just over the gate.
        for q0 in ([0.0], [0.25 + 4e-6]):
            cfg = make_config(
                tmp_path, potential={"q0_coefficients": q0,
                                     "rho0": {"source": "constant", "value": 1.0}}
            )
            lines = []
            code, report = pipeline.run_generate(cfg, log=lines.append)
            assert code == pipeline.EXIT_INTEGRABILITY
            assert report is None
            assert not (tmp_path / "surface.obj").exists()
            assert any("not admissible" in line for line in lines)

    def test_tiny_threshold_scale_exits_4_with_report(self, tmp_path):
        cfg = make_config(tmp_path, tolerances={"threshold_scale": 1e-6})
        lines = []
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert code == pipeline.EXIT_RESIDUAL
        assert report["pass"] is False
        assert report["surfaces"][0]["failures"]
        assert (tmp_path / "report.json").exists()
        assert any("FAIL" in line for line in lines)

    def test_family_writes_one_mesh_per_t(self, tmp_path):
        cfg = make_config(
            tmp_path,
            t_values=[0.0, 0.5],
            outputs={"mesh": str(tmp_path / "s_{t}.obj")},
        )
        code, report = pipeline.run_generate(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_PASS
        assert (tmp_path / "s_0.000000.obj").exists()
        assert (tmp_path / "s_0.500000.obj").exists()
        assert [s["t"] for s in report["surfaces"]] == [0.0, 0.5]

    def test_family_members_do_not_couple(self, tmp_path):
        # one march carries every t; member b must not see member a
        a, b = 0.3, 1.1
        potential = {
            "q0_coefficients": [0.0, [0.25, 0.0]],
            "rho0": {"source": "solved", "bc": 0.0},
        }
        paths = {}
        for name, t_values in (("pair", [a, b]), ("alone", [b])):
            out = tmp_path / name
            out.mkdir()
            cfg = make_config(
                tmp_path,
                potential=potential,
                t_values=t_values,
                outputs={
                    "mesh": str(out / "s_{t}.obj"),
                    "report": str(out / "report.json"),
                },
            )
            code, report = pipeline.run_generate(cfg, log=lambda *_: None)
            assert code == pipeline.EXIT_PASS
            paths[name] = out / f"s_{b:.6f}.obj"
            assert report["surfaces"][-1]["t"] == b
        assert paths["pair"].read_bytes() == paths["alone"].read_bytes()


class TestRunCheck:
    def test_vertical_plane_passes(self, tmp_path):
        path = tmp_path / "vertical.csv"
        write_surface_csv(dyadic_plane("vertical"), path)
        lines = []
        code, report = pipeline.run_check(
            path, report_path=tmp_path / "check.json", log=lines.append
        )
        assert code == pipeline.EXIT_PASS
        assert report["schema"] == "nilsurf-check/1"
        assert report["pass"] is True
        assert (tmp_path / "check.json").exists()
        # coordinate-only checks: auxiliary classes reported not computable
        assert any("not computable" in line for line in lines)
        assert any(line.strip() == "PASS" for line in lines)

    def test_horizontal_plane_rejected(self, tmp_path):
        path = tmp_path / "horizontal.csv"
        write_surface_csv(dyadic_plane("horizontal"), path)
        lines = []
        code, report = pipeline.run_check(path, log=lines.append)
        assert code == pipeline.EXIT_RESIDUAL
        assert report["pass"] is False
        failed = {f["residual"] for f in report["failures"]}
        assert "conformality" in failed
        assert any("OVER" in line for line in lines)

    def test_overflowing_coordinates_fail(self, tmp_path, capsys):
        # finite coordinates whose derivatives overflow: every residual is
        # NaN or inf on the interior, which used to print PASS and exit 0
        plane = dyadic_plane("vertical")
        x, y = plane.F.real, plane.height
        plane.F = 1e300 * (x + 1j * np.sin(3.0 * x * y))
        plane.height = 1e300 * y
        path = tmp_path / "overflow.csv"
        write_surface_csv(plane, path)
        report_path = tmp_path / "check.json"
        with np.errstate(all="ignore"):
            code = cli.main(["check", str(path), "--report", str(report_path)])
        assert code == pipeline.EXIT_RESIDUAL
        assert "PASS" not in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["pass"] is False
        assert [f["residual"] for f in report["failures"]] == list(
            residuals.COORDINATE_KEYS
        )
        assert all(f["value"] is None for f in report["failures"])

    def test_malformed_csv_exits_2(self, tmp_path):
        header = "x,y,F_re,F_im,h\n"
        line = "".join(f"{v},0,{v},0,0\n" for v in (0.0, 0.1, 0.2))
        column = "".join(f"0,{v},0,0,{v}\n" for v in (0.0, 0.1, 0.2))
        # horizontal plane h = -(x^2 + y^2)/8 on 4 x 4 nodes: no interior
        # node survives the default margin of 2
        ticks = (-0.375, -0.125, 0.125, 0.375)
        small = "".join(
            f"{x},{y},{x},{y},{-(x * x + y * y) / 8}\n" for y in ticks for x in ticks
        )
        for text in (
            "x,y,weird\n0,0,0\n",
            header + line,
            header + column,
            header + small,
        ):
            path = tmp_path / "bad.csv"
            path.write_text(text)
            code, report = pipeline.run_check(path, log=lambda *_: None)
            assert code == pipeline.EXIT_CONFIG
            assert report is None

    def test_margin_below_one_exits_2(self, tmp_path):
        # a constant surface degenerates everywhere: margin 2 reaches the
        # density gate (exit 4); margins 0 and -1 used to slice the
        # interior empty, skip that gate and pass with exit 0
        ticks = [k / 16 for k in range(-8, 9)]
        path = tmp_path / "flat.csv"
        path.write_text(
            "x,y,F_re,F_im,h\n"
            + "".join(f"{x},{y},0,0,0\n" for y in ticks for x in ticks)
        )
        quiet = {"log": lambda *_: None}
        assert pipeline.run_check(path, margin=2, **quiet)[0] == pipeline.EXIT_RESIDUAL
        for margin in (0, -1):
            code, report = pipeline.run_check(path, margin=margin, **quiet)
            assert code == pipeline.EXIT_CONFIG
            assert report is None

    def test_missing_file_exits_5(self, tmp_path):
        code, report = pipeline.run_check(
            tmp_path / "nope.csv", log=lambda *_: None
        )
        assert code == pipeline.EXIT_IO


class TestRunSolve:
    def test_requires_solved_source(self, tmp_path):
        cfg = make_config(tmp_path)
        code, result = pipeline.run_solve(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_CONFIG
        assert result is None

    def test_solves_and_writes_csv(self, tmp_path):
        cfg = make_config(
            tmp_path,
            potential={
                "q0_coefficients": [0.0, [0.25, 0.0]],  # Q0(z) = z/4
                "rho0": {"source": "solved", "bc": 0.0},
            },
        )
        out = tmp_path / "density.csv"
        lines = []
        code, result = pipeline.run_solve(cfg, out_path=out, log=lines.append)
        assert code == pipeline.EXIT_PASS
        assert result.newton_iterations >= 1
        assert result.final_residual <= cfg.solver_tol
        text = out.read_text().splitlines()
        assert text[0] == "x,y,u"
        assert len(text) == 1 + 65 * 65  # default solver grid: 4n-3 nodes
        assert any("Newton" in line for line in lines)


class TestBuildPotential:
    def test_solved_source_summary(self, tmp_path):
        cfg = make_config(
            tmp_path,
            potential={
                "q0_coefficients": [[0.25, 0.0]],
                "rho0": {"source": "solved", "bc": 0.0},
            },
        )
        potential, summary, result = pipeline.build_potential(cfg)
        assert summary["newton_iterations"] == result.newton_iterations
        assert len(summary["residual_history"]) == result.newton_iterations + 1
        assert summary["grid"]["nx"] == 65
        # the solved density is usable as potential data over the domain
        worst = pipeline.check_integrability(potential, *cfg.domain.axes())
        assert worst <= cfg.solver_tol * 10


class TestCheckSurfaceLike:
    def test_convenience_wrapper(self):
        passed, failures, report = pipeline.check_surface_like(
            dyadic_plane("vertical")
        )
        assert passed and failures == []
        assert report.maxima["conformality"] == 0.0

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            pipeline.check_surface_like(dyadic_plane("vertical"), bogus=1)

    @pytest.mark.parametrize("field, value", [("F", np.nan), ("height", np.inf)])
    def test_non_finite_coordinates_fail_closed(self, field, value):
        # NaN-aware maxima would drop the poisoned stencils and pass
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.5, 0.5, 33)
        surf = generate_surface(pot, ax, ax, 0.0)
        assert pipeline.check_surface_like(surf, potential=pot)[0]
        getattr(surf, field)[16, 16] = value
        with pytest.raises(DomainError, match=r"not finite at 1 node\(s\)"):
            pipeline.check_surface_like(surf, potential=pot)


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = make_config(tmp_path, **overrides)
        from nilsurf.config import serialize

        path = tmp_path / "run.json"
        path.write_text(serialize(cfg))
        return path

    def test_generate_subcommand(self, tmp_path):
        path = self._write_config(tmp_path)
        lines = []
        code = cli.main(["generate", str(path)], log=lines.append)
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_generate_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = cli.main(["generate", str(path)], log=lambda *_: None)
        assert code == 2

    def test_generate_missing_config_exits_5(self, tmp_path):
        code = cli.main(
            ["generate", str(tmp_path / "nope.json")], log=lambda *_: None
        )
        assert code == 5

    def test_check_subcommand_with_options(self, tmp_path):
        path = tmp_path / "vertical.csv"
        write_surface_csv(dyadic_plane("vertical"), path)
        report_path = tmp_path / "check.json"
        code = cli.main(
            [
                "check", str(path),
                "--report", str(report_path),
                "--margin", "3",
                "--threshold-scale", "2.0",
            ],
            log=lambda *_: None,
        )
        assert code == 0
        assert json.loads(report_path.read_text())["pass"] is True

    def test_solve_gauss_subcommand(self, tmp_path):
        path = self._write_config(
            tmp_path,
            potential={
                "q0_coefficients": [[0.25, 0.0]],
                "rho0": {"source": "solved", "bc": 0.0},
            },
        )
        out = tmp_path / "u.csv"
        code = cli.main(
            ["solve-gauss", str(path), "--out", str(out)], log=lambda *_: None
        )
        assert code == 0
        assert out.read_text().startswith("x,y,u\n")

    def test_solve_gauss_cg_failure_exits_3(self, tmp_path, monkeypatch):
        # Q0 = z/4 with bc 0: the harmonic fill has a zero right-hand side,
        # so the first Newton step's CG solve is the one that fails
        monkeypatch.setattr(pde, "CG_MAXITER", 1)
        path = self._write_config(
            tmp_path,
            potential={
                "q0_coefficients": [[0.0, 0.0], [0.25, 0.0]],
                "rho0": {"source": "solved", "bc": 0.0},
            },
        )
        lines = []
        code = cli.main(
            ["solve-gauss", str(path), "--out", str(tmp_path / "u.csv")],
            log=lines.append,
        )
        assert code == 3
        assert "conjugate gradients failed during newton step 1" in lines[-1]
        assert not (tmp_path / "u.csv").exists()

    def test_runtime_needs_no_scipy(self):
        # SciPy is a test dependency only: importing the package and
        # running a solve must not load it
        src = str(Path(nilsurf.__file__).resolve().parents[1])
        code = (
            "import sys, numpy as np, nilsurf, nilsurf.cli\n"
            "from nilsurf import pde\n"
            "x = np.linspace(-0.5, 0.5, 9)\n"
            "pde.newton_solve(np.zeros((9, 9)), 0.0, x, x)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"], log=lambda *_: None)

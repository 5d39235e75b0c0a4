"""End-to-end pipeline tests: thresholds, exit codes, CLI subcommands."""

import errno
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from obj_reader import read_obj

import nilsurf
from nilsurf import cli, config, frame, outputs, pde, pipeline, residuals
from nilsurf.residuals import (
    RESIDUAL_KEYS,
    classify_report,
    residual_thresholds,
    verify_surface,
)
from nilsurf.config import parse_config
from nilsurf.errors import (
    DegenerateNode,
    DomainError,
    MaxIterExceeded,
    NonFlatInput,
    SchemaError,
    ShapeViolation,
)
from nilsurf.outputs import write_surface_csv
from nilsurf.potentials import Potential
from nilsurf.surface import SurfaceGrid, generate_surface

#: The classes every surface has the inputs for: its coordinates.
COORDINATE_KEYS = (
    "conformality",
    "minimality_horizontal",
    "minimality_vertical",
    "covariant_minimality",
    "hopf_holomorphy",
)


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
        th = residual_thresholds(0.1)
        assert th["conformality"] == pytest.approx(2.0 * 0.01)
        assert th["gauss_map_tension"] == pytest.approx(0.25 * 0.01)
        assert set(th) == set(residuals.RESIDUAL_CLASSES)

    def test_floor_engages_on_fine_grids(self):
        th = residual_thresholds(1e-6)
        assert all(v == 1e-10 for v in th.values())
        th = residual_thresholds(1e-6, floor=1e-14)
        assert th["conformality"] == pytest.approx(2e-12)

    def test_scale_multiplies(self):
        base = residual_thresholds(0.1)
        scaled = residual_thresholds(0.1, scale=3.0)
        for key in base:
            assert scaled[key] == pytest.approx(3.0 * base[key])


class TestClassifyReport:
    def _report(self, tension_evaluated=0, **maxima):
        # coordinate classes default to a clean 0.0 on all 13 x 13 interior
        # nodes, the rest to NaN on none: no auxiliary data, and by default
        # the angle cutoff masks every interior node
        full = {
            key: 0.0 if key in COORDINATE_KEYS else float("nan")
            for key in RESIDUAL_KEYS
        }
        full.update(maxima)
        evaluated = {
            key: 13 * 13 if key in COORDINATE_KEYS else 0 for key in RESIDUAL_KEYS
        }
        evaluated["gauss_map_tension"] = tension_evaluated
        return types.SimpleNamespace(maxima=full, evaluated=evaluated)

    def test_all_nan_fails_on_coordinate_classes(self):
        # every surface has the data for the coordinate classes, so a NaN
        # there means no finite interior value, not "not computable"
        thresholds = residual_thresholds(0.1)
        report = self._report(**{key: float("nan") for key in RESIDUAL_KEYS})
        passed, failures = classify_report(report, thresholds)
        assert not passed
        assert [key for key, _, _ in failures] == list(COORDINATE_KEYS)
        assert all(math.isnan(value) for _, value, _ in failures)

    def test_nan_outside_coordinate_classes_is_skipped(self):
        # auxiliary data missing, Gauss map masked by the angle cutoff
        thresholds = residual_thresholds(0.1)
        passed, failures = classify_report(self._report(), thresholds)
        assert passed and failures == []

    def test_nan_tension_fails_where_the_mask_kept_nodes(self):
        # the tension is the only NaN class; one interior node escaped the
        # angle mask, so the class had data and found no finite value
        thresholds = residual_thresholds(0.1)
        report = self._report(tension_evaluated=1)
        passed, failures = classify_report(report, thresholds)
        assert not passed
        assert [key for key, _, _ in failures] == ["gauss_map_tension"]
        assert math.isnan(failures[0][1])

    def test_nan_auxiliary_class_fails_where_it_had_data(self):
        # the surface carried aux_height and the class found no finite
        # value on its nodes; without the data it is skipped
        thresholds = residual_thresholds(0.1)
        report = self._report()
        report.evaluated["aux_height_consistency"] = 13 * 13
        passed, failures = classify_report(report, thresholds)
        assert not passed
        assert [key for key, _, _ in failures] == ["aux_height_consistency"]
        assert math.isnan(failures[0][1])

    def test_single_failure_reported_with_threshold(self):
        thresholds = residual_thresholds(0.1)
        report = self._report(conformality=1.0, hopf_holomorphy=1e-12)
        passed, failures = classify_report(report, thresholds)
        assert not passed
        assert failures == [("conformality", 1.0, thresholds["conformality"])]

    def test_value_at_threshold_passes(self):
        thresholds = residual_thresholds(0.1)
        report = self._report(conformality=thresholds["conformality"])
        passed, failures = classify_report(report, thresholds)
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

    @pytest.mark.parametrize("source", ["constant", "solved"])
    def test_report_config_parses_to_the_run_config(self, tmp_path, source):
        # the report holds every key of the config and no retired one
        potential = {
            "q0_coefficients": [0.0, 0.25],
            "rho0": {"source": "solved", "bc": 0.0},
        }
        if source == "constant":
            potential = {}  # make_config's rho0 = 1, Q0 = 1/4
        cfg = make_config(tmp_path, potential=potential)
        code, report = pipeline.run_generate(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_PASS
        assert parse_config(json.dumps(report["config"])) == cfg
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert parse_config(json.dumps(on_disk["config"])) == cfg
        assert "solver" not in on_disk["config"]
        assert "shape" not in on_disk["config"]["tolerances"]

    def test_deterministic_outputs(self, tmp_path):
        cfg = make_config(tmp_path)
        pipeline.run_generate(cfg, log=lambda *_: None)
        first_report = (tmp_path / "report.json").read_bytes()
        first_mesh = (tmp_path / "surface.obj").read_bytes()
        pipeline.run_generate(cfg, log=lambda *_: None)
        assert (tmp_path / "report.json").read_bytes() == first_report
        assert (tmp_path / "surface.obj").read_bytes() == first_mesh

    def test_flagship_run_across_blas_thread_counts(self, tmp_path):
        # the bytes are deterministic per BLAS build and thread count: the
        # solve's matrix products round differently on 1 and 2 threads.
        # What holds across them: the Newton and CG counts, the verdicts,
        # the coordinates to 1e-12 and the residual maxima to 1e-6 relative
        src = str(Path(nilsurf.__file__).resolve().parents[1])
        code = (
            "import sys, numpy as np\n"
            "from nilsurf import cli, config, pipeline, surface\n"
            "assert cli.main(['generate', sys.argv[1]], log=lambda *_: None) == 0\n"
            "cfg = config.load_config(sys.argv[1])\n"
            "potential = pipeline.build_potential(cfg)[0]\n"
            "members = surface.generate_surface(\n"
            "    potential, *cfg.domain.axes(), cfg.t_values)\n"
            "np.save(sys.argv[2], np.stack([m.coords() for m in members]))\n"
        )
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            doc = {
                "potential": {
                    "q0_coefficients": [0.0, [0.25, 0.0]],
                    "rho0": {"source": "solved", "bc": 0.0},
                },
                "domain": {
                    "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
                    "nx": 49, "ny": 49,
                },
                "t_values": [0.0, math.pi / 4, math.pi / 2],
                "outputs": {
                    "mesh": str(out / "surface_t{t}.obj"),
                    "report": str(out / "report.json"),
                },
            }
            (out / "run.json").write_text(json.dumps(doc))
            env = {**os.environ, "PYTHONPATH": src}
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[name] = threads
            done = subprocess.run(
                [sys.executable, "-c", code, str(out / "run.json"), str(out / "c.npy")],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert done.returncode == 0, done.stderr
            runs.append(
                (json.loads((out / "report.json").read_text()), np.load(out / "c.npy"))
            )
        (one, coords_one), (two, coords_two) = runs
        for key in ("newton_iterations", "cg_iterations"):
            assert one["solver"][key] == two["solver"][key], key
        assert one["pass"] is two["pass"] is True
        np.testing.assert_allclose(coords_one, coords_two, rtol=0.0, atol=1e-12)
        for a, b in zip(one["surfaces"], two["surfaces"]):
            assert (a["pass"], a["failures"]) == (b["pass"], b["failures"])
            for key in RESIDUAL_KEYS:
                va = a["verification"]["maxima"][key]
                vb = b["verification"]["maxima"][key]
                assert (va is None) == (vb is None), key
                if va is not None:
                    assert va == pytest.approx(vb, rel=1e-6, abs=0.0), key

    def test_family_shares_one_face_block(self, tmp_path, monkeypatch):
        # every member's mesh equals a standalone export_obj of its surface,
        # and each generate call formats the face block of its own grid once
        calls = []
        formatter = pipeline.obj_faces

        def logged(nx, ny):
            calls.append((nx, ny))
            return formatter(nx, ny)

        monkeypatch.setattr(pipeline, "obj_faces", logged)
        for nx, ny, half_height in ((17, 13, 0.375), (13, 9, 1.0 / 3.0)):
            run = tmp_path / f"{nx}x{ny}"
            run.mkdir()
            cfg = make_config(
                run,
                domain={"nx": nx, "ny": ny, "ymin": -half_height, "ymax": half_height},
                t_values=[0.0, 0.4, 1.1],
                outputs={"mesh": str(run / "surface_{t}.obj")},
            )
            calls.clear()
            code, report = pipeline.run_generate(cfg, log=lambda *_: None)
            assert code == pipeline.EXIT_PASS
            assert calls == [(nx, ny)]
            x, y = cfg.domain.axes()
            potential = pipeline.build_potential(cfg)[0]
            members = generate_surface(potential, x, y, cfg.t_values)
            assert len(report["surfaces"]) == len(members) == 3
            for entry, surface in zip(report["surfaces"], members):
                alone = run / "alone.obj"
                outputs.export_obj(surface, alone)
                assert Path(entry["mesh_path"]).read_bytes() == alone.read_bytes()
                verts, faces = read_obj(alone)
                assert verts.shape == (nx * ny, 3)
                assert faces.shape == (2 * (nx - 1) * (ny - 1), 3)
                assert faces.max() == nx * ny - 1
                # the last cell's second triangle: v00, v11, v10
                v00 = nx * ny - nx - 2
                assert faces[-1].tolist() == [v00, v00 + nx + 1, v00 + nx]

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

    def test_overflowing_frames_exit_4(self, tmp_path):
        # admissible data whose frames overflow to NaN: the NaN coordinates
        # used to reach verify_surface and exit 2 as a bad input
        cfg = make_config(
            tmp_path,
            potential={
                "q0_coefficients": [1e20],
                "rho0": {"source": "constant", "value": 4e20},
            },
            domain={"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0},
        )
        lines = []
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert (code, report) == (pipeline.EXIT_RESIDUAL, None)
        assert "not finite" in lines[-1]
        assert not (tmp_path / "surface.obj").exists()

    def test_the_march_is_the_only_gate(self, tmp_path, monkeypatch):
        # one gate call for the family, made by the march; the pipeline's
        # own wrapper is not called
        calls = []
        gate = frame._check_admissibility
        monkeypatch.setattr(
            frame, "_check_admissibility", lambda *a: calls.append(1) or gate(*a)
        )
        monkeypatch.setattr(pipeline, "check_integrability", None)
        cfg = make_config(
            tmp_path,
            t_values=[0.0, 0.5],
            outputs={"mesh": str(tmp_path / "surface_{t}.obj")},
        )
        assert pipeline.run_generate(cfg, log=lambda *_: None)[0] == 0
        assert calls == [1]

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


class TestMeshWriter:
    """generate verifies every member, then writes the meshes in place."""

    def family(self, tmp_path, mesh_dir=None):
        mesh_dir = tmp_path if mesh_dir is None else mesh_dir
        return make_config(
            tmp_path,
            t_values=[0.0, 0.5],
            outputs={"mesh": str(mesh_dir / "s_{t}.obj")},
        )

    def test_every_verify_runs_before_the_first_export(self, tmp_path, monkeypatch):
        # both steps run in this process, verifies first; a fork fails
        def no_fork():
            raise AssertionError("generate forked")

        calls = []

        def recorded(name, step):
            def call(*args, **kwargs):
                calls.append((name, os.getpid()))
                return step(*args, **kwargs)

            return call

        monkeypatch.setattr(os, "fork", no_fork)
        for name in ("verify_surface", "export_obj"):
            monkeypatch.setattr(
                pipeline, name, recorded(name, getattr(pipeline, name))
            )
        code, _ = pipeline.run_generate(self.family(tmp_path), log=lambda *_: None)
        assert code == pipeline.EXIT_PASS
        me = os.getpid()
        assert calls == [
            ("verify_surface", me),
            ("verify_surface", me),
            ("export_obj", me),
            ("export_obj", me),
        ]
        assert (tmp_path / "s_0.500000.obj").exists()

    def test_missing_mesh_directory_exits_5(self, tmp_path):
        lines = []
        cfg = self.family(tmp_path, mesh_dir=tmp_path / "missing")
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert (code, report) == (pipeline.EXIT_IO, None)
        first = str(tmp_path / "missing" / "s_0.000000.obj")
        assert lines[-1] == (
            f"I/O error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
            f"{first!r}"
        )
        assert not any("PASS" in line for line in lines)
        assert not (tmp_path / "report.json").exists()
        # the verdicts come first, but name no mesh
        assert [line[:12] for line in lines[:2]] == ["[t=0.000000]", "[t=0.500000]"]
        assert not any("mesh ->" in line for line in lines)

    def test_failing_verify_exits_4(self, tmp_path, monkeypatch):
        # the meshes follow the verifies, so none is written
        def degenerate(*args, **kwargs):
            raise DegenerateNode("degenerate density at a node")

        monkeypatch.setattr(pipeline, "verify_surface", degenerate)
        lines = []
        code, report = pipeline.run_generate(self.family(tmp_path), log=lines.append)
        assert (code, report) == (pipeline.EXIT_RESIDUAL, None)
        assert lines == ["error: degenerate density at a node"]
        assert not (tmp_path / "report.json").exists()
        assert not list(tmp_path.glob("*.obj"))

    def test_writer_failure_is_not_exit_0(self, tmp_path, monkeypatch):
        # an exception of the mesh writer other than an OSError is not an
        # anticipated failure: it leaves run_generate as it was raised
        def broken(*args):
            raise ValueError("not a mesh")

        monkeypatch.setattr(pipeline, "export_obj", broken)
        lines = []
        with pytest.raises(ValueError, match="^not a mesh$"):
            pipeline.run_generate(self.family(tmp_path), log=lines.append)
        assert not any("PASS" in line for line in lines)
        assert not (tmp_path / "report.json").exists()


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

    @pytest.mark.parametrize("kind", ["vertical", "horizontal"])
    def test_table_says_over_for_exactly_the_failures(
        self, tmp_path, monkeypatch, kind
    ):
        # the table reads classify_report's verdict: one class marked as
        # failed while under its threshold, another passed while over it
        def classify(report, thresholds):
            passed, failures = classify_report(report, thresholds)
            failures = [f for f in failures if f[0] != "conformality"]
            key = "minimality_vertical"
            failures.append((key, report.maxima[key], thresholds[key]))
            return False, failures

        monkeypatch.setattr(residuals, "classify_report", classify)
        path = tmp_path / f"{kind}.csv"
        write_surface_csv(dyadic_plane(kind), path)
        lines = []
        code, report = pipeline.run_check(path, log=lines.append)
        assert code == pipeline.EXIT_RESIDUAL
        failed = {f["residual"] for f in report["failures"]}
        assert "minimality_vertical" in failed and "conformality" not in failed
        table = {line.split()[0]: line for line in lines if line.startswith("  ")}
        assert set(table) == set(RESIDUAL_KEYS)
        assert {k for k, line in table.items() if line.endswith("  OVER")} == failed
        assert table["conformality"].endswith("  ok")

    @pytest.mark.parametrize(
        "n, half_width", [(49, 0.5), (33, 0.3), (33, 0.5)]
    )
    def test_check_judges_a_generated_surface_by_its_thresholds(
        self, tmp_path, n, half_width
    ):
        # both commands take h from the surface's axes: 1/48 and 0.6/32
        # used to differ from check's x[1] - x[0] in the last bits, while
        # 1/32 is the dyadic control
        box = {"xmin": -half_width, "xmax": half_width}
        box.update(ymin=-half_width, ymax=half_width, nx=n, ny=n)
        cfg = make_config(tmp_path, domain=box)
        code, generated = pipeline.run_generate(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_PASS
        x, y = cfg.domain.axes()
        path = tmp_path / "surface.csv"
        potential = pipeline.build_potential(cfg)[0]
        surface = generate_surface(potential, x, y, cfg.t_values[0])
        write_surface_csv(surface, path)
        checked = pipeline.run_check(path, log=lambda *_: None)[1]
        assert checked["thresholds"] == generated["thresholds"]

    def test_vertical_plane_log_names_the_angle_mask(self, tmp_path):
        # gauss_map_tension is computed from the coordinates; on the
        # vertical plane the angle cutoff masks every interior node
        path = tmp_path / "vertical.csv"
        write_surface_csv(dyadic_plane("vertical"), path)
        lines = []
        assert pipeline.run_check(path, log=lines.append)[0] == pipeline.EXIT_PASS
        (line,) = [x for x in lines if x.split()[0] == "gauss_map_tension"]
        assert "(every interior node masked by the angle cutoff 0.05)" in line
        assert "not computable" not in line

    def test_nan_tension_alone_fails(self, tmp_path, monkeypatch):
        # a surface whose only non-finite class is the tension, on nodes
        # the angle mask keeps: it used to be skipped and pass
        ax = np.linspace(-0.5, 0.5, 17)
        path = tmp_path / "surface.csv"
        surface = generate_surface(Potential.constant(1.0, (0.25,)), ax, ax, 0.3)
        write_surface_csv(surface, path)

        def tension_lost(report, thresholds):
            # the maxima as the classifier reads them
            assert report.tension_skipped < 13 * 13
            report.maxima["gauss_map_tension"] = float("nan")
            return classify_report(report, thresholds)

        assert pipeline.run_check(path, log=lambda *_: None)[0] == pipeline.EXIT_PASS
        monkeypatch.setattr(residuals, "classify_report", tension_lost)
        lines = []
        code, report = pipeline.run_check(path, log=lines.append)
        assert code == pipeline.EXIT_RESIDUAL
        assert [f["residual"] for f in report["failures"]] == ["gauss_map_tension"]
        (line,) = [x for x in lines if x.split()[0] == "gauss_map_tension"]
        assert "no finite value on the interior" in line and line.endswith("OVER")
        assert "PASS" not in lines

    @pytest.mark.parametrize("n, code", [(5, 2), (6, 2), (7, 0)])
    def test_hopf_reach_gates_the_grid_at_margin_1(self, tmp_path, n, code):
        # 2 * margin + 3 = 5 nodes leave hopf_holomorphy (3 nodes in from
        # each side) without a node: that used to exit 4 on the exact plane
        ax = (np.arange(n) - n // 2) * 0.125
        xx, yy = np.meshgrid(ax, ax)
        path = tmp_path / "plane.csv"
        write_surface_csv(SurfaceGrid(x=ax, y=ax, t=0.0, F=xx + 0j, height=yy), path)
        argv = ["check", str(path), "--margin", "1"]
        assert cli.main(argv, log=lambda *_: None) == code

    def test_mirrored_plane_meets_the_pole_of_the_chart(self, tmp_path):
        # F = conj(z), h = 0 on a dyadic 17^2 grid over [-0.5, 0.5]^2: the
        # normal is exactly (0, 0, -1) at the centre node, the pole of the
        # Gauss map's stereographic chart.  The chart gives NaN there
        # without a warning, the downward normal masks every tension node,
        # and the plane is not conformal: exit 4.
        ax = np.arange(-8, 9) / 16.0
        xx, yy = np.meshgrid(ax, ax)
        plane = SurfaceGrid(
            x=ax, y=ax, t=0.0, F=xx - 1j * yy, height=np.zeros_like(xx)
        )
        path = tmp_path / "mirrored.csv"
        write_surface_csv(plane, path)
        report_path = tmp_path / "check.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fields = residuals.verify_surface(plane, keep_fields=True).fields
            argv = ["check", str(path), "--report", str(report_path)]
            code = cli.main(argv, log=lambda *_: None)
        np.testing.assert_array_equal(fields["normal"][8, 8], [0.0, 0.0, -1.0])
        assert np.isnan(fields["gauss_map"][8, 8])
        assert code == pipeline.EXIT_RESIDUAL
        report = json.loads(report_path.read_text())
        assert report["verification"]["tension_nodes"]["evaluated"] == 0
        assert "conformality" in {f["residual"] for f in report["failures"]}

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
        code = cli.main(["check", str(path), "--report", str(report_path)])
        assert code == pipeline.EXIT_RESIDUAL
        out = capsys.readouterr().out
        assert "PASS" not in out
        # the tension is NaN on nodes the angle mask keeps: it says so, and
        # fails with the coordinate classes
        assert "no finite value on the interior; 13 of 169 interior nodes" in out
        tension = [line for line in out.splitlines() if "gauss_map_tension" in line]
        assert len(tension) == 1 and tension[0].endswith("OVER")
        report = json.loads(report_path.read_text())
        assert report["pass"] is False
        assert [f["residual"] for f in report["failures"]] == list(
            COORDINATE_KEYS
        ) + ["gauss_map_tension"]
        assert all(f["value"] is None for f in report["failures"])

    def test_reports_are_strict_json(self, tmp_path):
        # JSON has no NaN or infinity.  A 1e300 vertical plane with one
        # height at -1e308 reads an infinite minimality_vertical, which
        # the failure entry writes as null, as the maxima do
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        cfg = make_config(tmp_path, tolerances={"threshold_scale": 1e-6})
        code, _ = pipeline.run_generate(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_RESIDUAL
        generated = json.loads(Path(cfg.report_path).read_text(), parse_constant=refuse)
        assert generated["surfaces"][0]["failures"]

        plane = dyadic_plane("vertical")
        plane.F = 1e300 * plane.F
        plane.height = 1e300 * plane.height
        plane.height[8, 8] = -1e308
        path = tmp_path / "infinite.csv"
        write_surface_csv(plane, path)
        report_path = tmp_path / "check.json"
        argv = ["check", str(path), "--report", str(report_path)]
        assert cli.main(argv, log=lambda *_: None) == pipeline.EXIT_RESIDUAL
        checked = json.loads(report_path.read_text(), parse_constant=refuse)
        assert checked["verification"]["maxima"]["minimality_vertical"] is None
        entries = {f["residual"]: f for f in checked["failures"]}
        assert entries["minimality_vertical"]["value"] is None

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--residual-floor", "nan"),
            ("--residual-floor", "inf"),
            ("--residual-floor", "0"),
            ("--threshold-scale", "-1"),
            ("--threshold-scale", "-inf"),
            ("--angle-cutoff", "nan"),
            ("--margin", "0"),
        ],
    )
    def test_flags_follow_the_config_rules(self, tmp_path, flag, value, capsys):
        # max(nan, C h^2) is NaN and value > NaN is false: a NaN floor used
        # to pass the horizontal plane with exit 0
        path = tmp_path / "horizontal.csv"
        write_surface_csv(dyadic_plane("horizontal"), path)
        report_path = tmp_path / "check.json"
        argv = ["check", str(path), "--report", str(report_path), f"{flag}={value}"]
        assert cli.main(argv) == pipeline.EXIT_CONFIG
        assert "PASS" not in capsys.readouterr().out
        assert not report_path.exists()

    def test_bad_flag_exits_2_before_reading(self, tmp_path):
        code, report = pipeline.run_check(
            tmp_path / "nope.csv", residual_floor=float("nan"), log=lambda *_: None
        )
        assert (code, report) == (pipeline.EXIT_CONFIG, None)

    def test_missing_file_exits_5(self, tmp_path):
        code, report = pipeline.run_check(
            tmp_path / "nope.csv", log=lambda *_: None
        )
        assert code == pipeline.EXIT_IO

    def test_report_over_its_csv_exits_2(self, tmp_path):
        # the library refuses it too, before the CSV is read
        (tmp_path / "sub").mkdir()
        csv_path = tmp_path / "plane.csv"
        write_surface_csv(dyadic_plane("vertical"), csv_path)
        before = csv_path.read_bytes()
        alias = tmp_path / "sub" / ".." / "plane.csv"
        lines = []
        code, report = pipeline.run_check(csv_path, report_path=alias, log=lines.append)
        assert (code, report) == (pipeline.EXIT_CONFIG, None)
        assert lines == [f"error: --report: {str(alias)!r} is the surface CSV"]
        assert csv_path.read_bytes() == before


class TestRunSolve:
    def test_requires_solved_source(self, tmp_path):
        cfg = make_config(tmp_path)
        code, result = pipeline.run_solve(cfg, log=lambda *_: None)
        assert code == pipeline.EXIT_CONFIG
        assert result is None

    def test_solves_and_writes_csv(self, tmp_path, monkeypatch):
        # solve-gauss writes the 5-point field: the deferred correction
        # is build_potential's, and the solve does not run it
        def no_correction(*args, **kwargs):
            raise AssertionError("solve-gauss ran the deferred correction")

        monkeypatch.setattr(pipeline, "deferred_correction", no_correction)
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
        assert result.final_residual <= pde.NEWTON_TOL
        text = out.read_text().splitlines()
        assert text[0] == "x,y,u"
        assert len(text) == 1 + 33 * 33  # default solver grid: 2n - 1 nodes
        assert any("Newton" in line for line in lines)
        xs, ys = cfg.solver_domain.axes()
        z = xs[None, :] + 1j * ys[:, None]
        five_point = pde.newton_solve(z / 4.0, 0.0, xs, ys)
        np.testing.assert_array_equal(result.u, five_point.u)

    def test_stagnating_line_search_exits_3(self, tmp_path, monkeypatch):
        # every Newton direction reversed: no step length lowers the
        # residual, so the line search halves down to its floor
        solve = pde._cg_solve

        def uphill(c, rhs, basis, context, **options):
            x, iterations = solve(c, rhs, basis, context, **options)
            return (-x if context.startswith("newton") else x), iterations

        monkeypatch.setattr(pde, "_cg_solve", uphill)
        cfg = make_config(
            tmp_path,
            potential={
                "q0_coefficients": [0.0, [0.25, 0.0]],
                "rho0": {"source": "solved", "bc": 0.0},
            },
        )
        lines = []
        code, result = pipeline.run_solve(cfg, log=lines.append)
        assert code == pipeline.EXIT_INTEGRABILITY
        assert result is None
        assert len(lines) == 1 and "line search stagnated" in lines[0]
        assert not (tmp_path / cfg.solution_path).exists()


SOLVED = {
    "q0_coefficients": [0.0, [0.25, 0.0]],
    "rho0": {"source": "solved", "bc": 0.0},
}


def refuse_the_run(monkeypatch):
    """Make a solve, a potential or a CSV read fail the test if it starts."""
    for name in ("build_potential", "solve_density", "read_surface_csv"):
        def started(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the writes were checked")

        monkeypatch.setattr(pipeline, name, started)


class TestCheckWrites:
    """pipeline.check_writes, the one rule for the files a command writes."""

    @pytest.mark.parametrize(
        "target, key",
        [
            ("report", "outputs.report"),
            ("solution", "outputs.solution"),
            ("out_path", "--out"),
        ],
    )
    def test_library_entry_points_refuse_the_config(
        self, tmp_path, monkeypatch, target, key
    ):
        # run_generate and run_solve used to write over the config that
        # load_config read, and exit 0; only the command line refused it
        path = tmp_path / "run.json"
        outputs = {} if target == "out_path" else {target: str(path)}
        cfg = make_config(tmp_path, potential=SOLVED, outputs=outputs)
        path.write_text(config.serialize(cfg))
        before = path.read_bytes()
        refuse_the_run(monkeypatch)
        loaded = config.load_config(str(path))
        assert loaded.path == str(path)
        lines = []
        if target == "report":
            code, value = pipeline.run_generate(loaded, log=lines.append)
        else:
            out = path if target == "out_path" else None
            code, value = pipeline.run_solve(loaded, out_path=out, log=lines.append)
        assert (code, value) == (pipeline.EXIT_CONFIG, None)
        assert lines == [f"error: {key}: {str(path)!r} is the configuration file"]
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_the_path_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "run.json"
        cfg = make_config(tmp_path)
        path.write_text(config.serialize(cfg))
        loaded = config.load_config(path)
        assert loaded.path == path and cfg.path is None
        assert loaded.to_dict() == cfg.to_dict()
        assert config.serialize(loaded) == path.read_text()

    def test_report_path_that_is_a_mesh_path(self, tmp_path, monkeypatch):
        # the paths are resolved, not stat'ed: neither file exists yet
        (tmp_path / "sub").mkdir()
        alias = str(tmp_path / "sub" / ".." / "m_0.500000.obj")
        cfg = make_config(
            tmp_path,
            t_values=[0.0, 0.5],
            outputs={"mesh": str(tmp_path / "m_{t}.obj"), "report": alias},
        )
        refuse_the_run(monkeypatch)
        lines = []
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert (code, report) == (pipeline.EXIT_CONFIG, None)
        assert lines == [
            f"error: outputs.report: {alias!r} is the mesh path of t_values[1]"
        ]
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_report_hard_linked_to_a_mesh_is_refused(self, tmp_path):
        # realpath does not see a hard link: the report used to replace
        # the mesh it had just been written as, and the run exited 0
        mesh = tmp_path / "m_0.000000.obj"
        mesh.write_text("an earlier mesh\n")
        report = tmp_path / "report.json"
        os.link(mesh, report)
        cfg = make_config(
            tmp_path,
            t_values=[0.0, 0.5],
            outputs={"mesh": str(tmp_path / "m_{t}.obj"), "report": str(report)},
        )
        path = tmp_path / "run.json"
        path.write_text(config.serialize(cfg))
        lines = []
        assert cli.main(["generate", str(path)], log=lines.append) == 2
        assert lines == [
            f"error: outputs.report: {str(report)!r} is the mesh path of t_values[0]"
        ]
        assert mesh.read_text() == "an earlier mesh\n"
        assert sorted(tmp_path.iterdir()) == [mesh, report, path]

    @pytest.mark.skipif(not hasattr(os, "pathconf"), reason="no os.pathconf")
    def test_a_mesh_name_the_directory_cannot_hold_is_refused(
        self, tmp_path, monkeypatch
    ):
        # {t} writes 1e300 with 301 digits: the run used to march and
        # verify, then exit 5 with ENAMETOOLONG, leaving the first mesh
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        cfg = make_config(
            tmp_path,
            t_values=[0.0, 1e300],
            outputs={"mesh": str(tmp_path / "m_{t}.obj")},
        )
        refuse_the_run(monkeypatch)
        lines = []
        code, report = pipeline.run_generate(cfg, log=lines.append)
        assert (code, report) == (pipeline.EXIT_CONFIG, None)
        (line,) = lines
        assert line.startswith("error: t_values[1]: ")
        assert line.endswith(f": name longer than {limit} bytes")
        assert list(tmp_path.iterdir()) == []


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
        # the counts are the 5-point solve's, the residuals the corrected
        # system's: the result and the potential's stored field
        first = pipeline.solve_density(cfg)
        assert summary["newton_iterations"] == first.newton_iterations
        assert len(summary["residual_history"]) == first.newton_iterations + 1
        assert summary["cg_iterations"] == first.cg_iterations
        assert summary["final_residual"] == result.final_residual
        assert summary["rounding_floor"] == result.rounding_floor
        assert summary["grid"]["nx"] == 33
        np.testing.assert_array_equal(
            potential.source.residual_field, result.residual_field
        )
        tau = pde.truncation_source(first.u, cfg.domain.hx)
        q2 = np.full(result.u.shape, 0.25**2)
        expected = pde.pde_residual(result.u, q2, cfg.domain.hx)
        expected[1:-1, 1:-1] -= tau
        np.testing.assert_array_equal(result.residual_field, expected)
        # the solved density is usable as potential data over the domain
        worst = pipeline.check_integrability(potential, *cfg.domain.axes())
        assert worst <= pde.NEWTON_TOL * 10

    def test_solved_coordinates_converge_at_fourth_order(self, tmp_path):
        # Q0 = z/4, bc 0 on [-0.5, 0.5]^2 at t = 0.7: max |c_2h - c_h| over
        # 17 -> 33 -> 65 -> 129 reads 2.3e-8, 1.7e-9, 1.1e-10 (orders 3.77,
        # 3.95); any second-order piece (the 5-point solve uncorrected,
        # second-order derivatives or bilinear samples) holds it at 2
        previous, changes = None, []
        for n in (17, 33, 65, 129):
            cfg = make_config(
                tmp_path,
                potential={
                    "q0_coefficients": [0.0, [0.25, 0.0]],
                    "rho0": {"source": "solved", "bc": 0.0},
                },
                domain={"nx": n, "ny": n},
            )
            potential = pipeline.build_potential(cfg)[0]
            surf = generate_surface(potential, *cfg.domain.axes(), 0.7)
            if previous is not None:
                changes.append(
                    max(
                        np.max(np.abs(surf.F[::2, ::2] - previous.F)),
                        np.max(np.abs(surf.height[::2, ::2] - previous.height)),
                    )
                )
            previous = surf
        orders = np.log2(np.array(changes[:-1]) / np.array(changes[1:]))
        assert changes[-1] <= 2e-10, changes
        assert np.all(np.abs(orders - 4.0) <= 0.3), orders

    @pytest.mark.parametrize(
        "box",
        [
            {"xmin": 0.0, "xmax": 0.6, "ymin": -0.2, "ymax": 0.4},
            {"xmin": 0.0, "xmax": 0.5, "ymin": 0.0, "ymax": 0.5},
        ],
    )
    def test_window_with_an_edge_at_the_origin_passes(self, tmp_path, box):
        # the default solver rectangle pads every side: one that shares the
        # window's edge at z = 0 (the rectangle doubled about the origin)
        # fails these runs, with ratios growing with n (to 11.8 at 49^2)
        for n in (17, 33, 49):
            cfg = make_config(
                tmp_path,
                potential={
                    "q0_coefficients": [0.0, [0.25, 0.0]],
                    "rho0": {"source": "solved", "bc": 0.0},
                },
                domain=dict(box, nx=n, ny=n),
                t_values=[0.0, 0.7],
                outputs={"mesh": str(tmp_path / "m_{t}.obj")},
            )
            code, report = pipeline.run_generate(cfg, log=lambda *_: None)
            assert code == pipeline.EXIT_PASS, (box, n)
            ratio = max(
                value / report["thresholds"][key]
                for entry in report["surfaces"]
                for key, value in entry["verification"]["maxima"].items()
                if value is not None
            )
            assert ratio <= 0.2, (box, n, ratio)


class TestCheckSurfaceLike:
    """verify_surface's own verdict on any surface grid, without files."""

    def test_convenience_wrapper(self):
        report = verify_surface(dyadic_plane("vertical"))
        assert report.passed and report.failures == []
        assert report.maxima["conformality"] == 0.0
        assert report.thresholds == residual_thresholds(0.125)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            verify_surface(dyadic_plane("vertical"), bogus=1)

    def test_covariant_minimality_can_fail_alone(self):
        # on this coarse Liouville surface the class's ratio to C h^2 is
        # 26.09, above minimality_horizontal's 21.95 and every other
        # class's: a scale between them fails this class and no other
        potential = Potential.liouville()
        x, y = np.linspace(-0.6, 0.6, 9), np.linspace(-0.3, 0.42, 9)
        surf = generate_surface(potential, x, y, [0.0])[0]
        report = verify_surface(surf, potential, margin=2, threshold_scale=23.93)
        assert not report.passed
        assert [key for key, _, _ in report.failures] == ["covariant_minimality"]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("residual_floor", float("nan")),
            ("residual_floor", float("inf")),
            ("threshold_scale", 0.0),
            ("angle_cutoff", float("nan")),
            ("angle_cutoff", float("inf")),
            ("margin", 0),
            ("margin", 2.0),
        ],
    )
    def test_options_follow_the_config_rules(self, option, value):
        # a NaN cutoff used to mask every tension node and skip the class
        with pytest.raises(SchemaError, match=f"tolerances.{option}"):
            verify_surface(dyadic_plane("horizontal"), **{option: value})

    @pytest.mark.parametrize(
        "field, value",
        [("F", np.nan), ("height", np.inf), ("aux_height", np.nan), ("fhat", np.inf)],
    )
    def test_non_finite_coordinates_fail_closed(self, field, value):
        # NaN-aware maxima would drop the poisoned stencils and pass (an
        # auxiliary class with no finite value at all was skipped)
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.5, 0.5, 33)
        surf = generate_surface(pot, ax, ax, 0.0)
        assert verify_surface(surf, potential=pot).passed
        getattr(surf, field)[16, 16] = value
        at_centre = r"not finite at 1 node\(s\), the first at \(x, y\) = \(0, 0\)"
        with pytest.raises(DomainError, match=at_centre):
            verify_surface(surf, potential=pot)

    def test_overflowing_auxiliary_height_fails(self):
        # a finite aux_height of +-1.5e308 in a period-4 pattern along both
        # axes overflows its derivative at every node: the class had its
        # data and no finite value, which used to be skipped as a pass
        pot = Potential.constant(1.0, (0.25,))
        ax = np.linspace(-0.5, 0.5, 33)
        surf = generate_surface(pot, ax, ax, 0.3)
        assert verify_surface(surf).passed
        sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(33) % 4]
        surf.aux_height = 1.5e308 * np.outer(sign, sign)
        report = verify_surface(surf)
        assert not report.passed
        assert [key for key, _, _ in report.failures] == ["aux_height_consistency"]
        assert math.isnan(report.maxima["aux_height_consistency"])
        assert report.evaluated["aux_height_consistency"] == 29 * 29

    @pytest.mark.parametrize("defect", ["non_uniform", "swapped", "height", "one_node"])
    def test_grids_the_stencils_cannot_use_are_refused(self, defect):
        # each of these used to PASS, FAIL or end in a NumPy error
        plane = dyadic_plane("vertical")
        if defect == "non_uniform":
            # still the exact plane, on a moved node
            plane.x = plane.x.copy()
            plane.x[8] += 0.01
            plane.F = np.broadcast_to(plane.x + 0j, plane.F.shape).copy()
        elif defect == "swapped":
            plane.F, plane.height = plane.F[:, :15], plane.height[:, :15]
            plane.x, plane.y = plane.y, plane.x[:15]
        elif defect == "height":
            plane.height = plane.height[:, :15]
        else:
            plane.x = plane.x[:1]
        with pytest.raises(DomainError) as err:
            verify_surface(plane)
        assert pipeline.exit_code_for(err.value) == pipeline.EXIT_CONFIG


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

    @pytest.mark.parametrize(
        "nx", [10**400, config.MAX_NODES + 1], ids=["10**400", "MAX_NODES+1"]
    )
    def test_generate_refuses_too_many_nodes(self, tmp_path, nx):
        # 10**400 used to reach np.linspace and end in a traceback
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc["domain"]["nx"] = nx
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        lines = []
        assert cli.main(["generate", str(path)], log=lines.append) == 2
        assert lines == [f"error: domain.nx: node count must be <= {config.MAX_NODES}"]

    def test_generate_refuses_t_values_sharing_a_mesh_path(self, tmp_path):
        # {t} keeps six decimals: the second member used to overwrite the
        # first member's mesh, and the run exited 0
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc["t_values"] = [0.1234561, 0.1234564, 1.0]
        doc["outputs"]["mesh"] = str(tmp_path / "m_{t}.obj")
        path = tmp_path / "close.json"
        path.write_text(json.dumps(doc))
        lines = []
        assert cli.main(["generate", str(path)], log=lines.append) == 2
        mesh = tmp_path / "m_0.123456.obj"
        assert lines == [
            f"error: t_values[1]: {str(mesh)!r} is the mesh path of t_values[0]"
        ]
        assert not mesh.exists()

    @pytest.mark.parametrize("target", ["report", "mesh", "solution", "--out"])
    def test_no_output_is_written_over_the_config(self, tmp_path, target):
        # the config is named through another spelling of its path, so the
        # paths are compared as files; the run used to exit 0 having
        # written its output over the config
        (tmp_path / "sub").mkdir()
        command = "generate" if target in ("report", "mesh") else "solve-gauss"
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc["potential"]["rho0"] = {"source": "solved", "bc": 0.0}
        path = tmp_path / "run.json"
        alias = str(tmp_path / "sub" / ".." / "run.json")
        argv = [command, str(path)]
        if target == "--out":
            argv += ["--out", alias]
        else:
            doc["outputs"]["mesh" if target == "mesh" else target] = alias
        path.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        lines = []
        assert cli.main(argv, log=lines.append) == 2
        key = {"mesh": "t_values[0]", "--out": "--out"}.get(target, f"outputs.{target}")
        assert lines == [f"error: {key}: {alias!r} is the configuration file"]
        assert json.loads(path.read_text()) == doc
        assert sorted(tmp_path.rglob("*")) == before

    def test_report_that_is_a_mesh_is_refused(self, tmp_path):
        # the report used to overwrite the first mesh and still describe it
        # as a mesh; neither file need exist, so the paths are resolved
        (tmp_path / "sub").mkdir()
        doc = json.loads(self._write_config(tmp_path).read_text())
        doc["t_values"] = [0.0, 0.5]
        doc["outputs"]["mesh"] = str(tmp_path / "m_{t}.obj")
        alias = str(tmp_path / "sub" / ".." / "m_0.000000.obj")
        doc["outputs"]["report"] = alias
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        lines = []
        assert cli.main(["generate", str(path)], log=lines.append) == 2
        assert lines == [
            f"error: outputs.report: {alias!r} is the mesh path of t_values[0]"
        ]
        assert sorted(tmp_path.rglob("*")) == before

    def test_check_report_over_its_csv_is_refused(self, tmp_path):
        # the report used to replace the CSV it had just read, exit 0
        (tmp_path / "sub").mkdir()
        csv_path = tmp_path / "plane.csv"
        write_surface_csv(dyadic_plane("vertical"), csv_path)
        before = csv_path.read_bytes()
        alias = str(tmp_path / "sub" / ".." / "plane.csv")
        lines = []
        code = cli.main(["check", str(csv_path), "--report", alias], log=lines.append)
        assert code == 2
        assert lines == [f"error: --report: {alias!r} is the surface CSV"]
        assert csv_path.read_bytes() == before

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

    def test_solve_gauss_residual_past_1e154_is_measured(self, tmp_path):
        # bc 700: the residual's entries reach about 1e303, whose squares
        # overflow, but the residual is finite; its scaled norm lets the
        # Newton iteration run to its cap
        path = self._write_config(
            tmp_path,
            potential={
                "q0_coefficients": [[0.0, 0.0], [0.25, 0.0]],
                "rho0": {"source": "solved", "bc": 700.0},
            },
        )
        lines = []
        code = cli.main(
            ["solve-gauss", str(path), "--out", str(tmp_path / "u.csv")],
            log=lines.append,
        )
        assert code == 3
        assert lines[-1].startswith(
            f"error: Newton solver stalled after {pde.NEWTON_MAX_ITER} iterations"
        )
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

    @pytest.mark.parametrize(
        "kind, flags, code",
        [
            ("vertical", [], 0),
            ("horizontal", [], 4),
            ("vertical", ["--residual-floor", "nan"], 2),
        ],
    )
    def test_process_exit_status(self, tmp_path, kind, flags, code):
        # the status __main__ hands to sys.exit, which main's callers here
        # never see
        path = tmp_path / f"{kind}.csv"
        write_surface_csv(dyadic_plane(kind), path)
        src = str(Path(nilsurf.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "nilsurf", "check", str(path), *flags],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == code, done.stdout + done.stderr

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"], log=lambda *_: None)

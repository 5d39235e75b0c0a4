"""Tests for run-configuration parsing, validation, and serialization."""

import json
import math

import numpy as np
import pytest

from nilsurf import config
from nilsurf.errors import DomainError, SchemaError


def base_document(**overrides):
    doc = {
        "potential": {
            "q0_coefficients": [[0.25, 0.0]],
            "rho0": {"source": "constant", "value": 1.0},
        },
        "domain": {
            "xmin": -0.5,
            "xmax": 0.5,
            "ymin": -0.5,
            "ymax": 0.5,
            "nx": 17,
            "ny": 17,
        },
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return config.parse_config(json.dumps(doc))


class TestDefaults:
    def test_minimal_document(self):
        cfg = parse(base_document())
        assert cfg.rho0_source == "constant"
        assert cfg.rho0_value == 1.0
        np.testing.assert_array_equal(cfg.q0_coefficients, [0.25 + 0.0j])
        assert cfg.t_values == config.DEFAULT_T_VALUES
        assert cfg.solver_tol == 1e-10
        assert cfg.solver_max_iter == 50
        assert cfg.shape_tol == 1e-6
        assert cfg.angle_cutoff == 0.05
        assert cfg.margin == 2
        assert cfg.residual_floor == 1e-10
        assert cfg.threshold_scale == 1.0
        assert cfg.mesh_pattern == "surface_t{t}.obj"
        assert cfg.report_path == "report.json"
        assert cfg.solution_path == "solution.csv"

    def test_grid_spec_accessors(self):
        cfg = parse(base_document())
        x, y = cfg.domain.axes()
        assert x.size == 17 and y.size == 17
        assert x[0] == -0.5 and x[-1] == 0.5
        assert cfg.domain.hx == pytest.approx(1.0 / 16.0)
        assert cfg.domain.contains_origin()

    def test_default_solver_domain_is_doubled_and_half_spaced(self):
        cfg = parse(base_document())
        solver = cfg.resolved_solver_domain()
        assert (solver.xmin, solver.xmax) == (-1.0, 1.0)
        assert (solver.ymin, solver.ymax) == (-1.0, 1.0)
        assert solver.nx == 4 * 17 - 3
        assert solver.hx == pytest.approx(cfg.domain.hx / 2.0, rel=1e-14, abs=0)
        # surface nodes land exactly on solver nodes
        sx, _ = solver.axes()
        dx, _ = cfg.domain.axes()
        assert np.all(np.isin(np.round(dx, 12), np.round(sx, 12)))


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        doc = base_document(
            t_values=[0.0, 0.6],
            solver={"tol": 1e-9, "max_iter": 30},
            tolerances={"margin": 3, "residual_floor": 1e-9},
            outputs={"mesh": "m_{t}.obj", "report": "r.json"},
        )
        cfg = parse(doc)
        text = config.serialize(cfg)
        again = config.parse_config(text)
        assert again.to_dict() == cfg.to_dict()
        assert config.serialize(again) == text
        assert text.endswith("\n")

    def test_solved_round_trip_pins_solver_domain(self):
        doc = base_document()
        doc["potential"]["rho0"] = {
            "source": "solved",
            "bc": "liouville",
            "solver_domain": {
                "xmin": -0.6, "xmax": 0.6, "ymin": -0.6, "ymax": 0.6,
                "nx": 129, "ny": 129,
            },
        }
        doc["potential"]["q0_coefficients"] = [0.0, [0.0, 0.25]]
        cfg = parse(doc)
        again = config.parse_config(config.serialize(cfg))
        assert again.to_dict() == cfg.to_dict()
        assert again.bc == "liouville"
        np.testing.assert_array_equal(
            again.q0_coefficients, [0.0, 0.25j]
        )

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_document()))
        cfg = config.load_config(str(path))
        assert cfg.rho0_source == "constant"


class TestSchemaErrors:
    def test_invalid_json(self):
        with pytest.raises(SchemaError) as err:
            config.parse_config("{not json")
        assert err.value.path == "<document>"

    def test_unknown_keys_carry_their_path(self):
        cases = [
            (base_document(extra=1), "extra"),
            (base_document(potential={"q0_coefficients": [0.25],
                                      "rho0": {"source": "constant", "value": 1.0},
                                      "oops": 1}), "potential.oops"),
            (base_document(tolerances={"margins": 2}), "tolerances.margins"),
            (base_document(tolerances={"flatness": 1e-5}), "tolerances.flatness"),
            (base_document(outputs={"meshes": "x.obj"}), "outputs.meshes"),
        ]
        for doc, path in cases:
            with pytest.raises(SchemaError) as err:
                parse(doc)
            assert err.value.path == path

    def test_source_specific_keys_are_enforced(self):
        doc = base_document()
        doc["potential"]["rho0"] = {"source": "constant", "value": 1.0, "bc": 0.0}
        with pytest.raises(SchemaError):
            parse(doc)
        doc = base_document()
        doc["potential"]["rho0"] = {"source": "liouville", "value": 1.0}
        with pytest.raises(SchemaError):
            parse(doc)

    def test_unknown_source(self):
        doc = base_document()
        doc["potential"]["rho0"] = {"source": "gaussian"}
        with pytest.raises(SchemaError) as err:
            parse(doc)
        assert err.value.path == "potential.rho0.source"

    def test_liouville_requires_zero_q0(self):
        doc = base_document()
        doc["potential"]["rho0"] = {"source": "liouville"}
        doc["domain"] = {
            "xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5,
            "nx": 17, "ny": 17,
        }
        with pytest.raises(SchemaError):
            parse(doc)
        doc["potential"]["q0_coefficients"] = [0.0]
        assert parse(doc).rho0_source == "liouville"

    def test_q0_validation(self):
        for bad in ([], [0.25] * 10, ["x"], [[1.0]], [[1.0, 2.0, 3.0]], [True]):
            doc = base_document()
            doc["potential"]["q0_coefficients"] = bad
            with pytest.raises(SchemaError):
                parse(doc)

    def test_booleans_are_not_numbers(self):
        doc = base_document(t_values=[True])
        with pytest.raises(SchemaError):
            parse(doc)
        doc = base_document(solver={"tol": True, "max_iter": 50})
        with pytest.raises(SchemaError):
            parse(doc)
        doc = base_document(solver={"tol": 1e-10, "max_iter": 50.0})
        with pytest.raises(SchemaError):
            parse(doc)

    def test_grid_validation(self):
        for patch, path_part in [
            ({"nx": 5}, "nx"),                  # too few nodes
            ({"xmin": 0.5, "xmax": -0.5}, "xmin"),
            ({"ymin": "a"}, "ymin"),
        ]:
            doc = base_document()
            doc["domain"].update(patch)
            with pytest.raises(SchemaError) as err:
                parse(doc)
            assert path_part in err.value.path

    def test_missing_required_sections(self):
        with pytest.raises(SchemaError):
            parse({"domain": base_document()["domain"]})
        with pytest.raises(SchemaError):
            parse({"potential": base_document()["potential"]})

    def test_empty_t_values(self):
        with pytest.raises(SchemaError):
            parse(base_document(t_values=[]))

    def test_mesh_pattern_needs_placeholder_for_families(self):
        doc = base_document(
            t_values=[0.0, 0.5], outputs={"mesh": "surface.obj"}
        )
        with pytest.raises(SchemaError) as err:
            parse(doc)
        assert err.value.path == "outputs.mesh"
        # a single t value needs no placeholder
        doc = base_document(t_values=[0.5], outputs={"mesh": "surface.obj"})
        assert parse(doc).mesh_pattern == "surface.obj"

    def test_tolerance_positivity(self):
        for key in ("shape", "residual_floor", "threshold_scale"):
            with pytest.raises(SchemaError):
                parse(base_document(tolerances={key: 0.0}))
        with pytest.raises(SchemaError):
            parse(base_document(tolerances={"margin": 0}))


class TestGeometryErrors:
    def test_domain_must_contain_origin(self):
        doc = base_document()
        doc["domain"].update({"xmin": 0.25, "xmax": 1.25})
        with pytest.raises(DomainError):
            parse(doc)

    def test_liouville_domain_inside_unit_disk(self):
        doc = base_document()
        doc["potential"] = {
            "q0_coefficients": [0.0],
            "rho0": {"source": "liouville"},
        }
        doc["domain"].update({"xmin": -0.9, "xmax": 0.9, "ymin": -0.9, "ymax": 0.9})
        with pytest.raises(DomainError):
            parse(doc)  # corner at |z| = 0.9 sqrt(2) > 1
        doc["domain"].update({"xmin": -0.6, "xmax": 0.6, "ymin": -0.6, "ymax": 0.6})
        assert parse(doc).rho0_source == "liouville"

    def _solved_doc(self, solver_domain=None, bc=0.0):
        doc = base_document()
        rho0 = {"source": "solved", "bc": bc}
        if solver_domain is not None:
            rho0["solver_domain"] = solver_domain
        doc["potential"]["rho0"] = rho0
        return doc

    def test_solver_domain_must_contain_surface(self):
        bad = {"xmin": -0.4, "xmax": 0.4, "ymin": -0.4, "ymax": 0.4,
               "nx": 129, "ny": 129}
        with pytest.raises(DomainError):
            parse(self._solved_doc(bad))

    def test_solver_spacing_must_be_half_or_finer(self):
        coarse = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                  "nx": 33, "ny": 33}  # h = 1/16, surface h = 1/16
        with pytest.raises(DomainError):
            parse(self._solved_doc(coarse))
        fine = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                "nx": 65, "ny": 65}  # h = 1/32 = half the surface spacing
        assert parse(self._solved_doc(fine)).solver_domain is not None

    def test_solver_cells_must_be_square(self):
        skewed = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                  "nx": 65, "ny": 129}
        with pytest.raises(DomainError):
            parse(self._solved_doc(skewed))

    def test_liouville_boundary_needs_disk_fit(self):
        # default solver domain doubles [-0.5, 0.5]^2 to [-1, 1]^2, whose
        # corners leave the unit disk: invalid for liouville boundary data
        with pytest.raises(DomainError):
            parse(self._solved_doc(bc="liouville"))
        snug = {"xmin": -0.6, "xmax": 0.6, "ymin": -0.6, "ymax": 0.6,
                "nx": 129, "ny": 129}
        assert parse(self._solved_doc(snug, bc="liouville")).bc == "liouville"


def test_serialization_is_canonical():
    cfg = parse(base_document())
    text = config.serialize(cfg)
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert data["potential"]["rho0"] == {"source": "constant", "value": 1.0}
    assert math.isclose(data["t_values"][1], math.pi / 4.0)

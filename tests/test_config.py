"""Tests for run-configuration parsing, validation, and serialization."""

import json
import math

import numpy as np
import pytest

from nilsurf import config
from nilsurf.errors import DomainError, SchemaError

#: Tolerance keys that became module constants (residuals.ANGLE_CUTOFF,
#: residuals.RESIDUAL_FLOOR).
RETIRED_TOLERANCES = ("angle_cutoff", "residual_floor")


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
        assert cfg.q0_coefficients == (0.25 + 0.0j,)
        assert cfg.t_values == config.DEFAULT_T_VALUES
        assert cfg.margin == 2
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

    def test_default_solver_domain_is_padded_at_the_surface_spacing(self):
        cfg = parse(base_document())
        solver = cfg.domain.padded()
        # 8 spacings of 1/16 on every side of [-0.5, 0.5]^2
        assert (solver.xmin, solver.xmax) == (-1.0, 1.0)
        assert (solver.ymin, solver.ymax) == (-1.0, 1.0)
        assert solver.nx == solver.ny == 2 * 17 - 1
        assert solver.hx == pytest.approx(cfg.domain.hx, rel=1e-14, abs=0)
        # surface nodes land exactly on solver nodes
        sx, _ = solver.axes()
        dx, _ = cfg.domain.axes()
        assert np.all(np.isin(np.round(dx, 12), np.round(sx, 12)))

    def test_default_solver_domain_pads_every_side(self):
        # a window with an edge (or a corner) at z = 0 keeps the solver's
        # Dirichlet edge floor((n - 1)/2) spacings away on that side too (a
        # rectangle doubled about the origin would share that edge)
        doc = base_document()
        doc["domain"].update(xmin=0.0, xmax=0.6, ymin=-0.2, ymax=0.4, nx=16, ny=17)
        domain = parse(doc).domain
        solver = domain.padded()
        assert (solver.nx, solver.ny) == (30, 33)
        assert solver.hx == pytest.approx(domain.hx, rel=1e-14, abs=0)
        assert solver.hy == pytest.approx(domain.hy, rel=1e-14, abs=0)
        assert solver.xmin == pytest.approx(-7 * domain.hx, rel=1e-14)
        assert solver.xmax == pytest.approx(0.6 + 7 * domain.hx, rel=1e-14)
        assert solver.ymin == pytest.approx(-0.2 - 8 * domain.hy, rel=1e-14)
        assert solver.ymax == pytest.approx(0.4 + 8 * domain.hy, rel=1e-14)
        sx, sy = solver.axes()
        dx, dy = domain.axes()
        np.testing.assert_allclose(sx[7:-7], dx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sy[8:-8], dy, rtol=0, atol=1e-15)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        doc = base_document(
            t_values=[0.0, 0.6],
            tolerances={"margin": 3, "threshold_scale": 0.5},
            outputs={"mesh": "m_{t}.obj", "report": "r.json"},
        )
        cfg = parse(doc)
        text = config.serialize(cfg)
        again = config.parse_config(text)
        assert again == cfg
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
        assert again.q0_coefficients == (0.0, 0.25j)

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_document()))
        cfg = config.load_config(str(path))
        assert cfg.rho0_source == "constant"

    def test_solved_configs_compare_equal(self, tmp_path):
        # Q0 = z/4 has two coefficients, whose comparison as an array had
        # no truth value; the recorded path is not part of equality
        doc = base_document()
        doc["potential"] = {
            "q0_coefficients": [0, 0.25],
            "rho0": {"source": "solved", "bc": 0.0},
        }
        text = json.dumps(doc)
        path = tmp_path / "run.json"
        path.write_text(text)
        cfg = config.parse_config(text)
        assert all(type(c) is complex for c in cfg.q0_coefficients)
        assert config.load_config(str(path)) == cfg
        assert config.parse_config(config.serialize(cfg)) == cfg
        doc["potential"]["q0_coefficients"] = [0, 0.5]
        assert parse(doc) != cfg


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
            (base_document(tolerances={"shape": 1e-6}), "tolerances.shape"),
            (base_document(tolerances={"angle_cutoff": 0.05}),
             "tolerances.angle_cutoff"),
            (base_document(tolerances={"residual_floor": 1e-10}),
             "tolerances.residual_floor"),
            (base_document(solver={"tol": 1e-10, "max_iter": 50}), "solver"),
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
        doc = base_document(tolerances={"threshold_scale": True})
        with pytest.raises(SchemaError):
            parse(doc)
        doc = base_document(tolerances={"margin": 2.0})
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

    def test_node_counts_are_bounded(self):
        for key, count in (("nx", 10**400), ("ny", config.MAX_NODES + 1)):
            doc = base_document()
            doc["domain"][key] = count
            with pytest.raises(SchemaError, match=f"<= {config.MAX_NODES}") as err:
                parse(doc)
            assert err.value.path == f"domain.{key}"
        doc = base_document()
        doc["domain"]["nx"] = config.MAX_NODES
        assert parse(doc).domain.nx == config.MAX_NODES

    def test_solver_grids_are_bounded(self):
        box = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0}
        doc = base_document()
        doc["potential"]["rho0"] = {
            "source": "solved",
            "solver_domain": dict(box, nx=129, ny=config.MAX_NODES + 1),
        }
        with pytest.raises(SchemaError) as err:
            parse(doc)
        assert err.value.path == "potential.rho0.solver_domain.ny"
        # the default solver grid has 2n - 1 nodes per axis for odd n
        largest = (config.MAX_NODES + 1) // 2
        doc["potential"]["rho0"] = {"source": "solved"}
        doc["domain"].update(nx=largest, ny=largest)
        assert parse(doc).solver_domain.ny == config.MAX_NODES
        doc["domain"]["ny"] = largest + 1
        with pytest.raises(SchemaError, match=r"n \+ 2 floor\(\(n - 1\)/2\)") as err:
            parse(doc)
        assert err.value.path == "domain.ny"

    @pytest.mark.parametrize(
        "box, path",
        [
            # the spacing's square underflows to 0
            ({"xmin": -1e-190, "xmax": 1e-190}, "domain.xmin"),
            # the width's square overflows
            ({"ymin": -1e300, "ymax": 1e300}, "domain.ymin"),
            # the width itself overflows
            ({"xmin": -1.7e308, "xmax": 1.7e308}, "domain.xmin"),
        ],
    )
    def test_widths_and_spacings_keep_their_squares_in_range(self, box, path):
        doc = base_document()
        doc["domain"].update(box)
        with pytest.raises(SchemaError, match="out of range") as err:
            parse(doc)
        assert err.value.path == path
        doc["domain"].update(xmin=-1e-100, xmax=1e-100, ymin=-1e150, ymax=1e150)
        assert parse(doc).domain.xmax == 1e-100

    def test_default_solver_grid_keeps_its_squares_in_range(self):
        # a width of 1e154 squares to 1e308; the padded solver width of
        # 2e154 does not square to a float
        doc = base_document()
        doc["domain"].update(xmin=-5e153, xmax=5e153)
        assert parse(doc).domain.xmin == -5e153
        doc["potential"]["rho0"] = {"source": "solved"}
        with pytest.raises(SchemaError, match="out of range") as err:
            parse(doc)
        assert err.value.path == "domain.xmin"

    def test_t_whose_double_overflows_is_refused(self):
        # the frames read t through exp(2 i t)
        with pytest.raises(SchemaError, match="2 t must be finite") as err:
            parse(base_document(t_values=[0.0, -1e308]))
        assert err.value.path == "t_values[1]"
        assert parse(base_document(t_values=[8e307])).t_values == (8e307,)

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
        with pytest.raises(SchemaError):
            parse(base_document(tolerances={"threshold_scale": 0.0}))
        with pytest.raises(SchemaError):
            parse(base_document(tolerances={"margin": 0}))


class TestOptionTable:
    def test_table_covers_every_default(self):
        for section, defaults in (
            ("tolerances", config.DEFAULT_TOLERANCES),
            ("outputs", config.DEFAULT_OUTPUTS),
        ):
            assert {k for s, k in config.OPTIONS if s == section} == set(defaults)
        # the tolerances' fields are named after their keys
        for key in config.DEFAULT_TOLERANCES:
            assert config.OPTIONS["tolerances", key].name == key

    def test_check_tolerances_fill_defaults(self):
        assert config.check_tolerances() == config.DEFAULT_TOLERANCES
        assert config.check_tolerances(margin=3)["margin"] == 3
        # NumPy scalars are numbers too, for library callers
        numpy_values = config.check_tolerances(
            margin=np.int64(3), threshold_scale=np.float32(0.5)
        )
        assert (numpy_values["margin"], numpy_values["threshold_scale"]) == (3, 0.5)
        for retired in ("shape", "angle_cutoff", "residual_floor"):
            with pytest.raises(TypeError, match=retired):
                config.check_tolerances(**{retired: 1e-6})

    @pytest.mark.parametrize("key", ["margin", "angle_cutoff", "residual_floor",
                                     "threshold_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1, 0, "1", True])
    def test_check_tolerances_agree_with_the_config(self, key, value):
        if key in RETIRED_TOLERANCES:
            # module constants of residuals: whatever the value, a
            # document that sets one and a keyword that names one are refused
            with pytest.raises(SchemaError, match="unknown key") as err:
                parse(base_document(tolerances={key: value}))
            assert err.value.path == f"tolerances.{key}"
            with pytest.raises(TypeError, match=key):
                config.check_tolerances(**{key: value})
            return
        try:
            parse(base_document(tolerances={key: value}))
        except SchemaError as exc:
            with pytest.raises(SchemaError) as err:
                config.check_tolerances(**{key: value})
            assert err.value.path == exc.path == f"tolerances.{key}"
        else:
            assert config.check_tolerances(**{key: value})[key] == value

    def test_huge_integers_are_not_finite(self):
        with pytest.raises(SchemaError, match="finite"):
            parse(base_document(tolerances={"threshold_scale": 10**400}))
        doc = base_document()
        doc["potential"]["q0_coefficients"] = [[10**400, 0.0]]
        with pytest.raises(SchemaError, match="finite"):
            parse(doc)


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

    def test_solver_spacing_must_be_at_most_the_surface_spacing(self):
        coarse = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                  "nx": 17, "ny": 17}  # h = 1/8, surface h = 1/16
        with pytest.raises(DomainError, match="at most the surface spacing"):
            parse(self._solved_doc(coarse))
        same = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                "nx": 33, "ny": 33}  # h = 1/16 = the surface spacing
        assert parse(self._solved_doc(same)).solver_domain is not None

    @pytest.mark.parametrize("scale", [1e-9, 1e-8, 1.0, 1e9])
    @pytest.mark.parametrize(
        "n, half_width, message",
        [
            (9, 1.0, "at most the surface spacing"),
            (33, 0.5, "must contain the surface rectangle"),
        ],
        ids=["twice-the-spacing", "half-the-rectangle"],
    )
    def test_solver_grid_checks_hold_at_every_scale(self, scale, n, half_width,
                                                   message):
        # a 17^2 window [-s, s]^2 (spacing s/8) with a solver grid at twice
        # its spacing, or on half its rectangle: refused at every scale s.
        # At s = 1e-9 an absolute slack of 1e-9 used to accept both, and
        # generate then failed the verdict or left the solved rectangle
        w = half_width * scale
        solver = {"xmin": -w, "xmax": w, "ymin": -w, "ymax": w, "nx": n, "ny": n}
        doc = self._solved_doc(solver)
        doc["domain"].update(xmin=-scale, xmax=scale, ymin=-scale, ymax=scale)
        with pytest.raises(DomainError, match=message):
            parse(doc)

    @pytest.mark.parametrize("scale", [1e-150, 1e-9, 1.0, 1e9, 1e150])
    @pytest.mark.parametrize(
        "window",
        [
            (-0.5, 0.5, -0.5, 0.5, 17, 17),
            (-0.5, 0.5, -0.5, 0.5, 16, 16),
            (0.0, 0.6, -0.2, 0.4, 33, 33),
            (-0.303, 0.657, -0.105, 0.495, 97, 61),
        ],
    )
    def test_default_solver_grid_is_accepted_at_every_scale(self, scale, window):
        xmin, xmax, ymin, ymax, nx, ny = window
        doc = self._solved_doc()
        doc["domain"] = {"xmin": xmin * scale, "xmax": xmax * scale,
                         "ymin": ymin * scale, "ymax": ymax * scale,
                         "nx": nx, "ny": ny}
        assert parse(doc).solver_domain == parse(doc).domain.padded()

    def test_solver_cells_must_be_square(self):
        skewed = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0,
                  "nx": 65, "ny": 129}
        with pytest.raises(DomainError):
            parse(self._solved_doc(skewed))

    @pytest.mark.parametrize("n", [10, 11])
    def test_default_solver_corner_is_within_the_doubled_one(self, n):
        # the doubled rectangle [-0.706, 0.706]^2 closes inside the unit
        # disk (corner 0.9984); padding by ceil((n - 1)/2) spacings would
        # put the corner of the even-n grid at 1.054
        doc = self._solved_doc(bc="liouville")
        doc["domain"].update(xmin=-0.353, xmax=0.353, ymin=-0.353, ymax=0.353,
                             nx=n, ny=n)
        solver = parse(doc).solver_domain
        assert solver.farthest_corner() <= 0.706 * np.sqrt(2.0) + 1e-15

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

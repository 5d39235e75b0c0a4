"""Spans and counts recorded around the public functions of each nilsurf module.

The tracer replaces module attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and restores them after,
so nothing under ``src/nilsurf`` changes.  A function is wrapped where its
caller looks it up: the pipeline imports ``newton_solve``,
``generate_surface``, ``verify_surface`` and the writers by name, so they
are wrapped in ``nilsurf.pipeline``; ``integrate_grid`` in
``nilsurf.surface``; the frame internals in ``nilsurf.frame``.

Spans stay in memory (name, start, end, parent, operation) and are written
out once, at the end.  A span's self time is its duration minus the time
covered by its children; summed over all spans of one operation the self
times equal the root span, which ``summary`` checks.
"""

import contextlib
import functools
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

ROOT = "pipeline.run"
LAYERS = (
    "config",
    "pipeline",
    "pde",
    "potentials",
    "frame",
    "surface",
    "residuals",
    "outputs",
)

#: Spans whose inclusive time is reported as "<span>.s".
TIMED = (
    "config.load_config",
    "pipeline.build_potential",
    "pipeline.check_integrability",
    "pde.newton_solve",
    "potentials.solved",
    "potentials.eval",
    "frame.integrate_grid",
    "frame.connection_at",
    "frame.admissibility",
    "surface.generate_surface",
    "surface.surface_from_frame",
    "residuals.verify_surface",
    "outputs.export_obj",
    "outputs.read_surface_csv",
    "outputs.write_solution_csv",
    "outputs.write_json",
)

#: Counts recorded at the wrappers; "_max" counts merge by max, others add.
COUNTS = (
    "pde.newton_steps",
    "pde.linear_solves",
    "pde.cg_iters",
    "pde.cg_iters_max",
    "potentials.eval_calls",
    "potentials.eval_points",
    "frame.rk4_steps",
    "frame.rk4_node_steps",
    "frame.connection_evals",
    "frame.connection_points",
    "surface.surfaces",
    "residuals.nodes",
    "residuals.classes_computed",
    "outputs.obj_bytes",
    "outputs.csv_bytes_read",
    "outputs.solution_bytes",
    "outputs.json_bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve(_args, _kwargs, result):
    its = [int(v) for v in result.cg_iterations]
    return {
        "pde.newton_steps": result.newton_iterations,
        "pde.linear_solves": len(its),
        "pde.cg_iters": sum(its),
        "pde.cg_iters_max": max(its, default=0),
    }


def _count_eval(args, kwargs, _result):
    points = np.size(_arg(args, kwargs, 1, "z"))
    return {"potentials.eval_calls": 1, "potentials.eval_points": points}


def _count_connection(args, kwargs, _result):
    points = np.size(_arg(args, kwargs, 1, "z"))
    return {"frame.connection_evals": 1, "frame.connection_points": points}


def _count_rk4(args, kwargs, _result):
    nodes = np.size(_arg(args, kwargs, 2, "z0"))
    return {"frame.rk4_steps": 1, "frame.rk4_node_steps": nodes}


def _count_verify(args, kwargs, result):
    surface = _arg(args, kwargs, 0, "surface")
    computed = sum(1 for v in result.maxima.values() if math.isfinite(v))
    return {"residuals.nodes": np.size(surface.F), "residuals.classes_computed": computed}


def _count_obj(_args, _kwargs, result):
    return {"outputs.obj_bytes": os.path.getsize(result.path)}


def _count_file(key, index):
    """Counter of the size of the file passed as argument `index` ("path")."""

    def count(args, kwargs, _result):
        return {key: os.path.getsize(_arg(args, kwargs, index, "path"))}

    return count


def _targets():
    """(owner, attribute, span name or None for count-only, counter)."""
    from nilsurf import cli, frame, pipeline, surface
    from nilsurf.potentials import Potential

    return [
        (cli, "load_config", "config.load_config", None),
        (pipeline, "build_potential", "pipeline.build_potential", None),
        (pipeline, "check_integrability", "pipeline.check_integrability", None),
        (pipeline, "newton_solve", "pde.newton_solve", _count_solve),
        (Potential, "solved", "potentials.solved", None),
        (Potential, "rho0", "potentials.eval", _count_eval),
        (Potential, "dlog_rho0_dz", "potentials.eval", _count_eval),
        (Potential, "q0", "potentials.eval", _count_eval),
        (surface, "integrate_grid", "frame.integrate_grid", None),
        (frame, "_check_admissibility", "frame.admissibility", None),
        (frame, "connection_at", "frame.connection_at", _count_connection),
        (frame, "rk4_step", None, _count_rk4),
        (pipeline, "generate_surface", "surface.generate_surface",
         lambda *_: {"surface.surfaces": 1}),
        (surface, "surface_from_frame", "surface.surface_from_frame", None),
        (pipeline, "verify_surface", "residuals.verify_surface", _count_verify),
        (pipeline, "export_obj", "outputs.export_obj", _count_obj),
        (pipeline, "read_surface_csv", "outputs.read_surface_csv",
         _count_file("outputs.csv_bytes_read", 0)),
        (pipeline, "write_solution_csv", "outputs.write_solution_csv",
         _count_file("outputs.solution_bytes", 1)),
        (pipeline, "write_json", "outputs.write_json",
         _count_file("outputs.json_bytes", 1)),
    ]


class Tracer:
    """In-memory span and count recorder for a sequence of operations."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        # one row per span: [name index, start, end, parent row or -1, op]
        self.spans = []
        self.op_counts = []
        self._stack = []

    def _span_begin(self, name):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        row = [index, time.perf_counter(), None, parent, len(self.op_counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _span_end(self, row):
        row[2] = time.perf_counter()
        self._stack.pop()

    def _record(self, counts):
        totals = self.op_counts[-1]
        for key, value in counts.items():
            if key.endswith("_max"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self._span_begin(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if row is not None:
                    self._span_end(row)
            if counter is not None:
                self._record(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self):
        """Root span of one operation; spans and counts inside belong to it."""
        self.op_counts.append(defaultdict(int))
        row = self._span_begin(ROOT)
        try:
            yield
        finally:
            self._span_end(row)

    def summary(self):
        """Per-operation means of span times and per-operation counts.

        Returns (metrics, problems).  problems lists counts that differ
        between operations and any gap between the summed self times and
        the root spans.
        """
        ops = len(self.op_counts)
        durations = np.array([end - start for _, start, end, _, _ in self.spans])
        children = np.zeros(len(self.spans))
        for row, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += durations[row]
        self_times = durations - children
        inclusive = defaultdict(float)
        exclusive = defaultdict(float)
        for row, (index, _, _, _, _) in enumerate(self.spans):
            inclusive[self.names[index]] += durations[row]
            exclusive[self.names[index]] += self_times[row]

        metrics = {}
        for name in TIMED:
            metrics[f"{name}.s"] = inclusive[name] / ops
        metrics["frame.integrate_grid.self_s"] = exclusive["frame.integrate_grid"] / ops
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (
                sum(v for k, v in exclusive.items() if k.split(".")[0] == layer) / ops
            )
        metrics["trace.wall_s"] = inclusive[ROOT] / ops

        problems = []
        first = self.op_counts[0]
        for key in COUNTS:
            metrics[key] = first[key]
            differing = [c[key] for c in self.op_counts if c[key] != first[key]]
            if differing:
                problems.append(f"count {key} not repeated: {first[key]} vs {differing}")
        unaccounted = metrics["trace.wall_s"] - sum(
            metrics[f"{layer}.self_s"] for layer in LAYERS
        )
        if abs(unaccounted) > 1e-9 * max(1.0, metrics["trace.wall_s"]):
            problems.append(f"layer self times miss {unaccounted:.3e} s of the op")
        return metrics, problems

    def write(self, path):
        """Write all spans as JSON: a name table and one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )

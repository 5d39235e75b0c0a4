"""Reader of the OBJ-style meshes that `nilsurf.outputs.export_obj` writes."""

import numpy as np


def read_obj(path):
    """Read back an OBJ-style mesh written by export_obj.

    Returns (vertices, faces) with vertices an (n, 3) float array and
    faces an (m, 3) int array of 0-based indices.
    """
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(v) - 1 for v in parts[1:4]])
    return np.asarray(vertices, dtype=float), np.asarray(faces, dtype=int)

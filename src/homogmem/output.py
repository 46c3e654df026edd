"""Snapshot and series writers: legacy VTK, CSV."""
from __future__ import annotations

import csv

import numpy as np

from .mesh import TriMesh


def write_vtk(mesh: TriMesh, values: np.ndarray, path, name: str = "u") -> None:
    """Write one nodal scalar field as legacy ASCII VTK (unstructured grid)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("field length does not match the mesh")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{name}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        nt = mesh.n_triangles
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("\n".join(["5"] * nt) + "\n")
        fh.write(f"POINT_DATA {mesh.n_vertices}\n")
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")


def _write_csv(path, names: list[str], arrays: list[np.ndarray]) -> None:
    """Write a header row of ``names``, then one row per index of ``arrays``:
    floats as their repr, which reads back bit for bit, integers as ints."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*arrays):
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else int(v) for v in row])


def write_snapshot_csv(mesh: TriMesh, values: np.ndarray, path,
                       name: str = "u") -> None:
    """Write (x1, x2, value) rows for one nodal field."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("field length does not match the mesh")
    xy = np.asarray(mesh.vertices, dtype=float)
    _write_csv(path, ["x1", "x2", name], [xy[:, 0], xy[:, 1], values])


def write_series_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns of equal length as CSV."""
    arrays = [np.asarray(a) for a in columns.values()]
    length = arrays[0].shape[0]
    if any(a.shape != (length,) for a in arrays):
        raise ValueError("all columns must have equal length")
    _write_csv(path, list(columns), arrays)

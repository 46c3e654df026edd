"""Snapshot and series writers: legacy VTK, CSV.

Floats are written as their repr, which reads back bit for bit.  Each file
is built column by column, a series _CHUNK_ROWS rows at a time.  The text
that depends only on the mesh (the VTK points and cells, the CSV coordinate
columns) is cached for the last mesh written, so the snapshots of a run,
which share one mesh object, build it once.  Meshes are immutable and hash
by identity, so the mesh object is the cache key.
"""
from __future__ import annotations

import csv
import io
from functools import lru_cache

import numpy as np

from .mesh import TriMesh

_CHUNK_ROWS = 4096


@lru_cache(maxsize=1)
def _vtk_geometry(mesh: TriMesh) -> str:
    """VTK lines from POINTS through the POINT_DATA header."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    points = "".join([f"{x!r} {y!r} 0.0\n"
                      for x, y in np.asarray(mesh.vertices, dtype=float).tolist()])
    cells = "".join([f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()])
    types = "\n".join(["5"] * nt) + "\n"
    return (f"POINTS {nv} double\n{points}CELLS {nt} {4 * nt}\n{cells}"
            f"CELL_TYPES {nt}\n{types}POINT_DATA {nv}\n")


@lru_cache(maxsize=1)
def _csv_prefixes(mesh: TriMesh) -> list[str]:
    """``"x1,x2,"`` of every vertex, in vertex order."""
    return [f"{x!r},{y!r},"
            for x, y in np.asarray(mesh.vertices, dtype=float).tolist()]


def _nodal_values(mesh: TriMesh, values) -> list[float]:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("field length does not match the mesh")
    return values.tolist()


def write_vtk(mesh: TriMesh, values: np.ndarray, path, name: str = "u") -> None:
    """Write one nodal scalar field as legacy ASCII VTK (unstructured grid)."""
    values = _nodal_values(mesh, values)
    data = "".join([f"{v!r}\n" for v in values])
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 2.0\n{name}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\n{_vtk_geometry(mesh)}"
                 f"SCALARS {name} double 1\nLOOKUP_TABLE default\n{data}")


def _write_csv(path, names: list[str], chunks) -> None:
    """Write a header row of ``names`` (quoted where CSV needs it), then
    each string of ``chunks``, a run of ``\\r\\n``-terminated rows."""
    header = io.StringIO()
    csv.writer(header).writerow(names)
    with open(path, "w", newline="") as fh:
        fh.write(header.getvalue())
        fh.writelines(chunks)


def write_snapshot_csv(mesh: TriMesh, values: np.ndarray, path,
                       name: str = "u") -> None:
    """Write (x1, x2, value) rows for one nodal field."""
    values = _nodal_values(mesh, values)
    prefixes = _csv_prefixes(mesh)
    _write_csv(path, ["x1", "x2", name],
               ["".join([f"{p}{v!r}\r\n" for p, v in zip(prefixes, values)])])


def _column_text(a: np.ndarray) -> list[str]:
    """Floats as their repr, anything else as an integer."""
    if a.dtype.kind == "f":
        return list(map(repr, a.tolist()))
    return [str(int(v)) for v in a.tolist()]


def write_series_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns of equal length as CSV: floats as their repr,
    integers as ints."""
    arrays = [np.asarray(a) for a in columns.values()]
    length = arrays[0].shape[0]
    if any(a.shape != (length,) for a in arrays):
        raise ValueError("all columns must have equal length")
    def chunk(i: int) -> str:
        texts = [_column_text(a[i:i + _CHUNK_ROWS]) for a in arrays]
        return "".join([",".join(row) + "\r\n" for row in zip(*texts)])

    _write_csv(path, list(columns), map(chunk, range(0, length, _CHUNK_ROWS)))

"""VTK and CSV writers: exact bytes, bit-exact floats, and the shape checks
that guard them."""
import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from homogmem import mesh as msh, output


def reference_vtk(mesh, values, name):
    """The writers' VTK bytes, built line by line."""
    lines = ["# vtk DataFile Version 2.0", name, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    lines += [f"{float(x)!r} {float(y)!r} 0.0" for x, y in mesh.vertices]
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    lines += [f"POINT_DATA {mesh.n_vertices}", f"SCALARS {name} double 1",
              "LOOKUP_TABLE default"]
    lines += [f"{float(v)!r}" for v in values]
    return ("\n".join(lines) + "\n").encode()


def reference_snapshot_csv(mesh, values, name):
    """The writers' snapshot CSV bytes, built row by row."""
    rows = [f"x1,x2,{name}"] + [f"{float(x)!r},{float(y)!r},{float(v)!r}"
                                for (x, y), v in zip(mesh.vertices, values)]
    return ("\r\n".join(rows) + "\r\n").encode()


def test_snapshot_csv_bytes(tmp_path):
    # a field named like a coordinate column is still written as its own column
    path = tmp_path / "snap.csv"
    output.write_snapshot_csv(msh.build_unit_square_mesh(1),
                              np.array([0.1, -2.5, 1.0 / 3.0, 0.0]), path, name="x1")
    assert path.read_bytes() == (
        b"x1,x2,x1\r\n0.0,0.0,0.1\r\n1.0,0.0,-2.5\r\n"
        b"0.0,1.0,0.3333333333333333\r\n1.0,1.0,0.0\r\n"
    )


def test_vtk_bytes(tmp_path):
    path = tmp_path / "snap.vtk"
    output.write_vtk(msh.build_unit_square_mesh(1),
                     np.array([0.1, -2.5, 1.0 / 3.0, 0.0]), path, name="u")
    assert path.read_bytes() == (
        b"# vtk DataFile Version 2.0\nu\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        b"POINTS 4 double\n0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 1.0 0.0\n1.0 1.0 0.0\n"
        b"CELLS 2 8\n3 0 1 3\n3 0 3 2\nCELL_TYPES 2\n5\n5\nPOINT_DATA 4\n"
        b"SCALARS u double 1\nLOOKUP_TABLE default\n"
        b"0.1\n-2.5\n0.3333333333333333\n0.0\n"
    )


def test_mesh_text_follows_the_mesh(tmp_path):
    # the mesh-only text is reused between snapshots on one mesh; a different
    # mesh, even one with the same sizes, must get its own text
    square = msh.build_unit_square_mesh(2)
    meshes = [square, msh.build_unit_square_mesh(3),
              dataclasses.replace(square, vertices=0.5 * square.vertices,
                                  triangles=square.triangles[:, ::-1]),
              square]
    rng = np.random.default_rng(3)
    for i, mesh in enumerate(meshes):
        values = rng.standard_normal(mesh.n_vertices)
        output.write_vtk(mesh, values, tmp_path / f"{i}.vtk", name="u")
        output.write_snapshot_csv(mesh, values, tmp_path / f"{i}.csv", name="u")
        assert (tmp_path / f"{i}.vtk").read_bytes() == reference_vtk(mesh, values, "u")
        assert (tmp_path / f"{i}.csv").read_bytes() == reference_snapshot_csv(
            mesh, values, "u")


def test_extreme_floats_read_back_bit_for_bit(tmp_path):
    # signed zero, the smallest subnormal and a value near overflow, in the
    # coordinates and in the field
    extremes = np.array([-0.0, 5e-324, 1e308, -1e308])
    square = msh.build_unit_square_mesh(1)
    mesh = dataclasses.replace(square, vertices=np.column_stack(
        [extremes, extremes[::-1]]))
    output.write_vtk(mesh, extremes, tmp_path / "f.vtk")
    output.write_snapshot_csv(mesh, extremes, tmp_path / "f.csv")

    lines = (tmp_path / "f.vtk").read_text().splitlines()
    points = np.array([line.split() for line in lines[5:9]], dtype=float)
    field = np.array(lines[-4:], dtype=float)
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = np.array(list(csv.reader(fh))[1:], dtype=float)
    for got, want in ((points[:, :2], mesh.vertices), (field, extremes),
                      (rows[:, :2], mesh.vertices), (rows[:, 2], extremes)):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_series_csv_bytes(tmp_path):
    # integer columns stay integers, floats are written as their repr
    path = tmp_path / "series.csv"
    output.write_series_csv(path, {"n": np.arange(3), "t": np.array([0.0, 0.1, 0.2])})
    assert path.read_bytes() == b"n,t\r\n0,0.0\r\n1,0.1\r\n2,0.2\r\n"


@pytest.mark.parametrize("length", [0, 1, output._CHUNK_ROWS, 2 * output._CHUNK_ROWS + 3])
def test_series_csv_bytes_across_chunks(tmp_path, length):
    t = np.linspace(0.0, 1.0, length) ** 3
    path = tmp_path / "series.csv"
    output.write_series_csv(path, {"n": np.arange(length), "t": t})
    rows = ["n,t"] + [f"{k},{float(v)!r}" for k, v in enumerate(t)]
    assert path.read_bytes() == ("\r\n".join(rows) + "\r\n").encode()


def test_series_csv_text_is_built_a_chunk_at_a_time(tmp_path, monkeypatch):
    # the writer holds one chunk's text at a time, not the whole file's: at
    # 40 chunks its peak is 0.29 of the file's size, where the whole text
    # built as Python strings at once peaked at 8 times it
    monkeypatch.setattr(output, "_CHUNK_ROWS", 256)
    length = 40 * output._CHUNK_ROWS
    columns = {"n": np.arange(length), "t": np.linspace(0.0, 1.0, length),
               "energy": np.random.default_rng(0).random(length)}
    path = tmp_path / "series.csv"
    tracemalloc.start()
    try:
        output.write_series_csv(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


def test_shape_mismatches_rejected(tmp_path):
    with pytest.raises(ValueError, match="does not match the mesh"):
        output.write_snapshot_csv(msh.build_unit_square_mesh(1), np.zeros(3),
                                  tmp_path / "snap.csv")
    with pytest.raises(ValueError, match="equal length"):
        output.write_series_csv(tmp_path / "series.csv",
                                {"n": np.arange(3), "t": np.zeros(2)})
    assert not any(tmp_path.iterdir())

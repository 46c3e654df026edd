"""CSV writers: exact bytes, and the shape checks that guard them."""
import numpy as np
import pytest

from homogmem import mesh as msh, output


def test_snapshot_csv_bytes(tmp_path):
    # a field named like a coordinate column is still written as its own column
    path = tmp_path / "snap.csv"
    output.write_snapshot_csv(msh.build_unit_square_mesh(1),
                              np.array([0.1, -2.5, 1.0 / 3.0, 0.0]), path, name="x1")
    assert path.read_bytes() == (
        b"x1,x2,x1\r\n0.0,0.0,0.1\r\n1.0,0.0,-2.5\r\n"
        b"0.0,1.0,0.3333333333333333\r\n1.0,1.0,0.0\r\n"
    )


def test_series_csv_bytes(tmp_path):
    # integer columns stay integers, floats are written as their repr
    path = tmp_path / "series.csv"
    output.write_series_csv(path, {"n": np.arange(3), "t": np.array([0.0, 0.1, 0.2])})
    assert path.read_bytes() == b"n,t\r\n0,0.0\r\n1,0.1\r\n2,0.2\r\n"


def test_shape_mismatches_rejected(tmp_path):
    with pytest.raises(ValueError, match="does not match the mesh"):
        output.write_snapshot_csv(msh.build_unit_square_mesh(1), np.zeros(3),
                                  tmp_path / "snap.csv")
    with pytest.raises(ValueError, match="equal length"):
        output.write_series_csv(tmp_path / "series.csv",
                                {"n": np.arange(3), "t": np.zeros(2)})
    assert not any(tmp_path.iterdir())

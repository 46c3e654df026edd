"""Shared fixtures: reference geometries, meshes, and kernels.

Expensive artifacts (the reference-cell correctors and the 100-term kernel)
are built once per session; tests treat them as read-only.
"""
import numpy as np
import pytest

from homogmem import cell, kernel, mesh as msh

# reference inclusion: semi-axes 0.4/0.2, major axis 30 degrees past vertical
REF_GEOM = msh.CellGeometry(a=0.4, b=0.2, angle_deg=30.0)

# comparison targets for the reference cell
REF_TENSOR = np.array([[0.85945517, -0.08225859], [-0.08225859, 0.97984380]])
REF_EIGENVALUES = np.array([
    89.221, 157.04, 251.11, 293.96, 372.81, 399.10, 522.88, 527.31,
    624.58, 679.89,
])
REF_CHI0 = 120.4433
REF_R0 = 0.335697
REF_R31 = 0.036592
REF_RHO = 2.3951e-6


@pytest.fixture(scope="session")
def ref_geom():
    return REF_GEOM


@pytest.fixture(scope="session")
def coarse_cell_mesh():
    """Reference cell at h=1/48 (unit-test scale)."""
    return msh.build_cell_mesh(REF_GEOM, 1.0 / 48, n_arc=128)


@pytest.fixture(scope="session")
def coarse_correctors(coarse_cell_mesh):
    return cell.solve_correctors(coarse_cell_mesh, REF_GEOM)


@pytest.fixture(scope="session")
def inclusion_mesh_fine():
    """Kernel-stage mesh: the quarter inclusion, h=1/160, 384 boundary arcs."""
    return msh.build_inclusion_mesh(REF_GEOM, 1.0 / 160, n_arc=384)


@pytest.fixture(scope="session")
def raw_kernel_100(inclusion_mesh_fine):
    return kernel.build_kernel(inclusion_mesh_fine, REF_GEOM, 100)


@pytest.fixture(scope="session")
def filtered_kernel(raw_kernel_100):
    return kernel.filter_kernel(raw_kernel_100, 1e-5)

"""Mesh construction, labeling, pairing, and serialization."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from homogmem import fem, kernel as ker, mesh as msh
from homogmem.errors import GeometryError, MeshFormatError, PeriodicityError
from meshtools import (LINE_EDITS, edit_line_elements, mirror_quarter, validate_mesh,
                       write_msh)


def polygon_area(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestCellGeometry:
    def test_semi_axis_order_enforced(self):
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.1, b=0.2)
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.2, b=0.0)

    def test_positive_coefficients_enforced(self):
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.3, b=0.2, d1=0.0)
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.3, b=0.2, d2=-1.0)

    def test_ellipse_must_fit_in_cell(self):
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.55, b=0.1)  # major axis vertical, too long
        # fits horizontally at angle 90 even though it would not vertically
        msh.CellGeometry(a=0.45, b=0.1, angle_deg=90.0)
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.3, b=0.2, center=(0.15, 0.5))

    def test_angle_zero_major_axis_is_vertical(self):
        geom = msh.CellGeometry(a=0.4, b=0.2)
        ex, ey = geom.extents()
        assert ex == pytest.approx(0.2)
        assert ey == pytest.approx(0.4)
        poly = geom.boundary_polygon(256)
        assert np.abs(poly[:, 0] - 0.5).max() == pytest.approx(0.2, abs=1e-12)
        assert np.abs(poly[:, 1] - 0.5).max() == pytest.approx(0.4, rel=1e-3)

    def test_angle_rotates_counterclockwise(self):
        # 30 degrees past vertical puts the major axis at 120 degrees
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=30.0)
        tip = geom.local_frame() @ np.array([0.0, 0.4])
        assert np.degrees(np.arctan2(tip[1], tip[0])) == pytest.approx(120.0)

    def test_extents_bound_polygon(self):
        geom = msh.CellGeometry(a=0.35, b=0.15, angle_deg=25.0)
        poly = geom.boundary_polygon(4096)
        ex, ey = geom.extents()
        assert np.abs(poly[:, 0] - 0.5).max() <= ex + 1e-12
        assert np.abs(poly[:, 1] - 0.5).max() <= ey + 1e-12
        # the bound is attained in the fine-polygon limit
        assert np.abs(poly[:, 0] - 0.5).max() == pytest.approx(ex, rel=1e-5)
        assert np.abs(poly[:, 1] - 0.5).max() == pytest.approx(ey, rel=1e-5)

    def test_polygon_area_approaches_ellipse_area(self):
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=30.0)
        area = polygon_area(geom.boundary_polygon(512))
        exact = 0.5 * 512 * math.sin(2 * math.pi / 512) * 0.4 * 0.2
        assert area == pytest.approx(exact, rel=1e-12)
        assert area == pytest.approx(geom.inclusion_measure, rel=1e-4)

    def test_polygon_needs_enough_arcs(self):
        with pytest.raises(GeometryError):
            msh.CellGeometry(a=0.3, b=0.2).boundary_polygon(4)

    @pytest.mark.parametrize("b", [1e-300, 5e-324])
    def test_contains_a_needle_without_an_overflow_warning(self, b):
        # off the major axis (x/b)**2 overflows to inf, which is outside
        geom = msh.CellGeometry(a=0.3, b=b)
        points = np.array([[0.5, 0.5], [0.5, 0.7], [0.5, 0.81], [0.501, 0.5],
                           [0.9, 0.9]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = geom.contains(points)
        np.testing.assert_array_equal(inside, [True, True, False, False, False])

    @given(
        b=st.floats(0.05, 0.2),
        ratio=st.floats(1.0, 2.0),
        angle=st.floats(0.0, 360.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_polygon_points_lie_on_the_ellipse(self, b, ratio, angle):
        a = min(b * ratio, 0.24)
        geom = msh.CellGeometry(a=a, b=max(b, 1e-3), angle_deg=angle)
        poly = geom.boundary_polygon(32)
        local = (poly - np.array(geom.center)) @ geom.local_frame()
        radii = np.hypot(local[:, 0] / geom.b, local[:, 1] / geom.a)
        assert np.abs(radii - 1.0).max() < 1e-10


class TestUnitSquareMesh:
    def test_counts_and_measure(self):
        mesh = msh.build_unit_square_mesh(4)
        assert mesh.n_vertices == 25
        assert mesh.n_triangles == 32
        assert mesh.areas.sum() == pytest.approx(1.0)
        assert mesh.areas.min() > 0.0
        assert mesh.boundary_edges.shape[0] == 16
        assert (mesh.boundary_tags == msh.OUTER).all()
        assert (mesh.subdomain == msh.OMEGA).all()
        validate_mesh(mesh)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_boundary_is_the_open_edges(self, n):
        mesh = msh.build_unit_square_mesh(n)
        assert mesh.boundary_edges.shape == (4 * n, 2)
        assert (mesh.boundary_tags == msh.OUTER).all()
        ends = mesh.vertices[mesh.boundary_edges]
        # each edge lies on one side of the frame and spans one grid step
        on_side = (ends == 0.0) | (ends == 1.0)
        assert (on_side[:, 0] & on_side[:, 1]).any(axis=1).all()
        np.testing.assert_allclose(
            np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1), 1.0 / n)
        edges = {tuple(e) for e in mesh.boundary_edges.tolist()}
        assert len(edges) == 4 * n and all(a < b for a, b in edges)

    def test_meshes_hash_and_compare_by_identity(self):
        # a mesh is its object: two meshes built alike are distinct
        a, b = msh.build_unit_square_mesh(2), msh.build_unit_square_mesh(2)
        assert hash(a) == hash(a)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_tagged_vertices(self):
        # vertex 3j + i sits at (i/2, j/2); all but the centre are on the frame
        mesh = msh.build_unit_square_mesh(2)
        outer = mesh.tagged_vertices((msh.OUTER,))
        np.testing.assert_array_equal(outer, [0, 1, 2, 3, 5, 6, 7, 8])
        assert outer.dtype == np.int64
        np.testing.assert_array_equal(mesh.tagged_vertices(msh.OUTER), outer)
        assert mesh.tagged_vertices((msh.INCLUSION,)).size == 0
        assert mesh.tagged_vertices(()).size == 0

    def test_label_override(self):
        mesh = msh.build_unit_square_mesh(3, label=msh.Y1)
        assert (mesh.subdomain == msh.Y1).all()

    def test_rejects_bad_subdivision(self):
        with pytest.raises(ValueError):
            msh.build_unit_square_mesh(0)


class TestCellMesh:
    def test_valid_and_labeled(self, coarse_cell_mesh, ref_geom):
        mesh = coarse_cell_mesh
        validate_mesh(mesh)
        assert abs(mesh.areas.sum() - 1.0) <= 1e-12
        measure = mesh.subdomain_measure(msh.Y2)
        assert measure == pytest.approx(ref_geom.inclusion_measure, rel=1e-3)
        assert mesh.subdomain_measure(msh.Y1) + measure == pytest.approx(1.0)

    def test_interface_edges_close_the_polygon(self, coarse_cell_mesh):
        inc = coarse_cell_mesh.boundary_tags == msh.INCLUSION
        edges = coarse_cell_mesh.boundary_edges[inc]
        counts = np.bincount(edges.ravel())
        assert (counts[counts > 0] == 2).all()  # a single closed loop

    def test_square_sides_mirror_identical(self, coarse_cell_mesh):
        v = coarse_cell_mesh.vertices
        left = np.sort(v[np.isclose(v[:, 0], 0.0), 1])
        right = np.sort(v[np.isclose(v[:, 0], 1.0), 1])
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_memory_grows_with_the_mesh_not_the_polygon(self, ref_geom):
        # 16 times the polygon vertices give 1.41 times the mesh vertices at
        # h=1/96; the traced peak per mesh vertex grew 2.44 times with
        # point-by-edge arrays for the distances and the inside test, 2.04
        # times with the distances local only, and 1.05 times with both local
        per_vertex = []
        for n_arc in (256, 4096):
            tracemalloc.start()
            try:
                mesh = msh.build_cell_mesh(ref_geom, 1.0 / 96, n_arc)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            per_vertex.append(peak / mesh.n_vertices)
        assert per_vertex[1] < 1.3 * per_vertex[0]

    @pytest.mark.parametrize("h, n_arc, angle", [
        (1.0 / 24, 64, 0.0), (0.02, 127, 30.0), (1.0 / 96, 512, 45.0), (0.25, 8, 0.0),
    ])
    def test_vertex_estimate_bounds_the_mesh(self, h, n_arc, angle):
        geom = msh.CellGeometry(a=0.3, b=0.15, angle_deg=angle)
        mesh = msh.build_cell_mesh(geom, h, n_arc)
        n = max(2, round(1.0 / h))
        assert mesh.n_vertices <= msh.cell_mesh_vertices(h, n_arc) == (n + 1) ** 2 + n_arc

    def test_too_coarse_spacing_rejected(self):
        geom = msh.CellGeometry(a=0.45, b=0.45)
        with pytest.raises(GeometryError):
            msh.build_cell_mesh(geom, 0.2, n_arc=16)

    def test_nonpositive_spacing_rejected(self, ref_geom):
        with pytest.raises(ValueError):
            msh.build_cell_mesh(ref_geom, -0.1)

    # each size function checks the arguments of its mesher: it raises the
    # mesher's own error, message and all, before sizing anything
    @pytest.mark.parametrize("kind, h, n_arc, message", [
        ("inclusion", 1.0 / 24, 30, "inclusion mesh n_arc must be a multiple of 4"),
        ("inclusion", 1.0 / 24, 4, "inclusion mesh n_arc must be at least 8"),
        ("inclusion", 0.0, 64, "inclusion mesh spacing h must be positive and finite"),
        ("inclusion", math.nan, 64, "inclusion mesh spacing h must be positive and finite"),
        ("cell", 0.0, 64, "cell mesh spacing h must be positive and finite"),
        ("cell", math.nan, 64, "cell mesh spacing h must be positive and finite"),
        ("cell", math.inf, 64, "cell mesh spacing h must be positive and finite"),
        ("cell", 1.0 / 24, 4, "cell mesh n_arc must be at least 8"),
    ])
    def test_size_function_raises_what_its_mesher_raises(self, ref_geom, kind, h,
                                                         n_arc, message):
        size, build = {
            "cell": (lambda: msh.cell_mesh_vertices(h, n_arc),
                     lambda: msh.build_cell_mesh(ref_geom, h, n_arc)),
            "inclusion": (lambda: msh.inclusion_mesh_vertices(ref_geom.a, h, n_arc),
                          lambda: msh.build_inclusion_mesh(ref_geom, h, n_arc)),
        }[kind]
        with pytest.raises(ValueError, match=message) as sized:
            size()
        with pytest.raises(ValueError, match=message) as built:
            build()
        assert type(sized.value) is type(built.value)
        assert str(sized.value) == str(built.value)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_spacing_rejected(self, ref_geom, h):
        for build in (msh.build_cell_mesh, msh.build_inclusion_mesh):
            with pytest.raises(ValueError, match="spacing h must be positive and finite"):
                build(ref_geom, h)


def dense_distance(points, poly):
    """Distance from each point to the closed polygonal line through poly,
    every point against every edge."""
    d = np.roll(poly, -1, axis=0) - poly
    len2 = (d * d).sum(axis=1)
    rel = points[:, None, :] - poly[None, :, :]
    t = np.clip((rel * d[None]).sum(axis=2) / len2[None], 0.0, 1.0)
    proj = poly[None] + t[:, :, None] * d[None]
    gap = points[:, None, :] - proj
    return np.sqrt((gap * gap).sum(axis=2)).min(axis=1)


def dense_inside(points, poly):
    """Strict inside test of a counterclockwise convex polygon, every point
    against every edge."""
    d = np.roll(poly, -1, axis=0) - poly
    rel = points[:, None, :] - poly[None, :, :]
    cross = d[None, :, 0] * rel[:, :, 1] - d[None, :, 1] * rel[:, :, 0]
    return (cross > 0.0).all(axis=1)


def dense_cell_mesh(geom, h, n_arc):
    """Reference cell mesher: Qhull on every kept grid point and the polygon,
    every grid point and centroid tested against every polygon edge, and
    edges compared as tuples and row-unique pairs.

    This is the mesher as it was before its polygon queries became local and
    before it split the squares away from the polygon itself; the
    point-by-edge arrays are formed a block of rows at a time, which gives
    the same values per row at bounded memory.
    """
    poly = geom.boundary_polygon(n_arc)

    def by_rows(f, points, rows=4096):
        return np.concatenate(
            [f(points[i:i + rows], poly) for i in range(0, len(points), rows)]
        )

    clear = max(0.35 * h, 0.55 * msh._longest_edge(poly))
    n = max(2, int(round(1.0 / h)))
    coords = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(coords, coords, indexing="xy")
    grid = np.column_stack([xg.ravel(), yg.ravel()])
    grid = grid[by_rows(dense_distance, grid) >= clear]

    points = np.vstack([grid, poly])
    triangles = msh._fix_orientation(
        points, np.asarray(Delaunay(points).simplices, dtype=np.int64)
    )
    p = points[triangles]
    ring = grid.shape[0] + np.arange(n_arc)
    wanted = {tuple(sorted(e)) for e in zip(ring.tolist(), np.roll(ring, -1).tolist())}
    uniq, inverse, counts = unique_edges_reference(triangles)
    assert wanted <= {tuple(e) for e in uniq.tolist()}

    subdomain = np.where(by_rows(dense_inside, p.mean(axis=1)), msh.Y2, msh.Y1)
    outer_mask = counts == 1
    label_sum = np.zeros(uniq.shape[0])
    np.add.at(label_sum, inverse, subdomain[np.tile(np.arange(len(triangles)), 3)])
    interface_mask = (counts == 2) & (label_sum == msh.Y1 + msh.Y2)
    assert {tuple(e) for e in uniq[interface_mask].tolist()} == wanted
    return msh.TriMesh(
        vertices=points,
        triangles=triangles,
        subdomain=subdomain,
        boundary_edges=np.vstack([uniq[outer_mask], uniq[interface_mask]]),
        boundary_tags=np.concatenate([
            np.full(int(outer_mask.sum()), msh.OUTER),
            np.full(int(interface_mask.sum()), msh.INCLUSION),
        ]),
    )


def unique_edges_reference(triangles):
    edges = np.sort(np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    ), axis=1)
    uniq, inverse, counts = np.unique(
        edges, axis=0, return_inverse=True, return_counts=True
    )
    return uniq, inverse.ravel(), counts


def grid_squares(mesh, n, n_arc):
    """Per triangle, the grid square (row-major index) whose three corners it
    has, or -1 for a triangle with a polygon vertex or a wider span; the
    kept grid points are the vertices before the ``n_arc`` polygon ones."""
    corner = np.rint(mesh.vertices * n).astype(np.int64)[mesh.triangles]
    low = corner.min(axis=1)
    in_one = ((corner.max(axis=1) - low) == 1).all(axis=1)
    in_one &= (mesh.triangles < mesh.n_vertices - n_arc).all(axis=1)
    return np.where(in_one, low[:, 1] * n + low[:, 0], -1)


def delaunay_cells(mesh):
    """The mesh as a set of (vertices, label) cells: each cell is a maximal
    group of triangles joined across interior edges whose two opposite
    angles sum to pi, as frozensets of vertex indices.  The corners of such
    a group are cocircular, and a Delaunay triangulation may split them
    along any diagonals, so two meshes with equal cells differ at most in
    those diagonals; each whole grid square is one cell."""
    tri = mesh.triangles
    p = mesh.vertices[tri]
    # per slot, edge (0, 1), (1, 2), (2, 0) of each triangle in turn, the
    # cotangent of the angle opposite it
    cots = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u, v = p[:, i] - p[:, k], p[:, j] - p[:, k]
        cots.append((u * v).sum(axis=1) / np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    uniq, inverse, counts = unique_edges_reference(tri)
    weight = np.bincount(inverse, weights=np.concatenate(cots))
    interface = {tuple(e) for e in mesh.boundary_edges.tolist()}
    ambiguous = (counts == 2) & (np.abs(weight) < 1e-9)
    ambiguous &= np.array([tuple(e) not in interface for e in uniq.tolist()])
    slot = np.flatnonzero(ambiguous[inverse])
    slot = slot[np.argsort(inverse[slot], kind="stable")]
    owner = slot % tri.shape[0]
    links = sp.coo_matrix((np.ones(owner.size // 2), (owner[0::2], owner[1::2])),
                          shape=(tri.shape[0],) * 2)
    _, cell = connected_components(links, directed=False)
    vertices = [set() for _ in range(cell.max() + 1)]
    for c, t in zip(cell.tolist(), tri.tolist()):
        vertices[c].update(t)
    label = np.zeros(len(vertices), dtype=np.int64)
    label[cell] = mesh.subdomain
    return {(frozenset(v), lab) for v, lab in zip(vertices, label.tolist())}


def y1_stiffness(mesh, geom):
    y1, _ = msh.submesh(mesh, msh.Y1)
    return fem.assemble_stiffness(y1, geom.d1)


class TestCellMeshMatchesDenseReference:
    @pytest.mark.parametrize(
        "h, n_arc, angle, center",
        [
            (0.02, 256, 30.0, (0.5, 0.5)),
            (1.0 / 192, 256, 30.0, (0.5, 0.5)),
            (1.0 / 48, 128, 17.0, (0.5, 0.5)),
            (0.02, 64, 0.0, (0.5, 0.5)),
            (0.02, 128, 90.0, (0.5, 0.5)),
            (1.0 / 96, 512, 45.0, (0.45, 0.52)),
        ],
    )
    def test_arrays_identical(self, h, n_arc, angle, center):
        # the vertex and boundary arrays are identical; the triangles are,
        # but for the diagonals between cocircular corners, which Qhull
        # picks freely: in each whole grid square, which the mesher splits
        # itself, and where a polygon vertex completes a cocircular quad
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=angle, center=center)
        mesh = msh.build_cell_mesh(geom, h, n_arc)
        ref = dense_cell_mesh(geom, h, n_arc)
        for name in ("vertices", "boundary_edges", "boundary_tags"):
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        got, want = delaunay_cells(mesh), delaunay_cells(ref)
        assert got == want
        # among them the whole grid squares, two triangles each, with labels
        n = round(1.0 / h)
        whole = []
        for m in (mesh, ref):
            square = grid_squares(m, n, n_arc)
            rows = np.column_stack([square, m.subdomain])[square >= 0]
            seen, count = np.unique(rows, axis=0, return_counts=True)
            whole.append(seen[count == 2])
        np.testing.assert_array_equal(*whole)
        assert len(whole[0]) > 0.5 * n * n
        # each diagonal has cotangent weight cot 90 deg = 0 in a square
        got, want = y1_stiffness(mesh, geom), y1_stiffness(ref, geom)
        assert abs(got - want).max() <= 1e-13 * abs(want).max()

    @pytest.mark.parametrize("h, n_arc, angle", [
        (0.02, 256, 30.0), (1.0 / 48, 64, 0.0), (1.0 / 96, 512, 45.0),
    ])
    def test_untouched_squares_use_the_fixed_diagonal(self, h, n_arc, angle):
        # a square is touched when a corner is removed or a polygon vertex
        # lies within (1 + 1e-6) times its circumradius of its centre; one
        # more ring of squares is a margin, and every other square is split
        # from its bottom-left to its top-right corner
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=angle)
        mesh = msh.build_cell_mesh(geom, h, n_arc)
        n = round(1.0 / h)
        poly = geom.boundary_polygon(n_arc)
        kept = np.zeros((n + 1) ** 2, dtype=bool)
        corner = np.rint(mesh.vertices[:-n_arc] * n).astype(np.int64)
        kept[corner[:, 1] * (n + 1) + corner[:, 0]] = True
        kept = kept.reshape(n + 1, n + 1)
        touched = ~(kept[:-1, :-1] & kept[:-1, 1:] & kept[1:, :-1] & kept[1:, 1:])
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        centres = np.column_stack([i.ravel(), j.ravel()]) + 0.5
        gap = np.linalg.norm(centres[:, None, :] / n - poly[None], axis=2).min(axis=1)
        touched |= (gap <= (1.0 + 1e-6) * math.sqrt(0.5) / n).reshape(n, n)
        padded = np.pad(touched, 1)
        margin = np.zeros_like(touched)
        for dy in range(3):
            for dx in range(3):
                margin |= padded[dy:dy + n, dx:dx + n]
        untouched = np.flatnonzero(~margin.ravel())
        assert untouched.size > 0.5 * n * n

        square = grid_squares(mesh, n, n_arc)
        at = np.isin(square, untouched)
        assert at.sum() == 2 * untouched.size
        # the square's bottom-left and top-right corners are in both halves
        lo = np.rint(mesh.vertices * n).astype(np.int64)[mesh.triangles[at]]
        low = lo.min(axis=1, keepdims=True)
        diagonal = ((lo == low).all(axis=2).any(axis=1)
                    & (lo == low + 1).all(axis=2).any(axis=1))
        assert diagonal.all()

    @pytest.mark.parametrize("n_arc, angle, ratio", [
        (8, 0.0, 0.25), (9, 41.0, 0.25), (16, 17.0, 0.25), (256, 30.0, 0.25),
        (9, 12.0, 0.02), (64, 30.0, 0.02),
    ], ids=["8-0.0", "9-41.0", "16-17.0", "256-30.0", "9-12.0-thin", "64-30.0-thin"])
    def test_local_polygon_queries_match_dense(self, n_arc, angle, ratio):
        # points crowd the polygon, including the sliver between polygon and
        # ellipse, where the ellipse equation and the polygon disagree; they
        # agree on every point as far from the polygon as the mesher keeps
        # its grid points, of which a square around the ellipse holds more
        geom = msh.CellGeometry(a=0.4, b=0.4 * ratio, angle_deg=angle)
        poly = geom.boundary_polygon(n_arc)
        rng = np.random.default_rng(n_arc)
        t = rng.uniform(0.0, 2.0 * np.pi, 4000)
        r = rng.uniform(0.0, 1.5, 4000) ** 0.5
        r[:2000] = 1.0 - rng.uniform(0.0, 0.5 / n_arc**2, 2000)
        local = np.column_stack([geom.b * r * np.cos(t), geom.a * r * np.sin(t)])
        pts = np.vstack([local @ geom.local_frame().T,
                         rng.uniform(-0.5, 0.5, (2000, 2))]) + np.asarray(geom.center)
        inside = dense_inside(pts, poly)
        in_ellipse = geom.contains(pts)
        assert (in_ellipse & ~inside).sum() > 100
        dist = dense_distance(pts, poly)
        tree = cKDTree(poly)
        for clear in (0.001, 0.01, 0.05):
            is_clear = msh._clear_of_polygon(pts, tree, clear)
            np.testing.assert_array_equal(is_clear, dist >= clear)
        far = dist >= 0.55 * msh._longest_edge(poly)
        assert far.sum() > 1000
        np.testing.assert_array_equal(in_ellipse[far], inside[far])

    def test_caps_are_lower_than_a_tenth_of_the_longest_edge(self):
        # a point between the polygon and the ellipse lies in the cap over
        # one edge, no farther from that edge than the cap's farthest arc
        # point; the worst cap is the circle's at n_arc = 8, tan(pi/16)/2
        # edges high, under the 0.55 edges that kept grid points keep clear
        s = np.linspace(0.0, 1.0, 65)
        worst = 0.0
        for n_arc in [*range(8, 40), 64, 127, 128, 256, 384, 1024]:
            t = 2.0 * np.pi * (np.arange(n_arc)[:, None] + s) / n_arc
            for ratio in np.geomspace(1e-3, 1.0, 31):
                geom = msh.CellGeometry(a=0.4, b=0.4 * ratio)
                poly = geom.boundary_polygon(n_arc)
                arc = np.stack([geom.b * np.cos(t), geom.a * np.sin(t)], axis=-1)
                arc += np.asarray(geom.center)
                d = np.roll(poly, -1, axis=0) - poly
                cap = msh._segment_gaps(arc, poly[:, None], d[:, None]).max()
                worst = max(worst, cap / msh._longest_edge(poly))
        assert worst <= 0.1
        assert worst == pytest.approx(0.5 * math.tan(math.pi / 16), rel=1e-9)

    def test_edge_incidence_matches_row_unique(self, ref_geom, coarse_cell_mesh):
        inclusion = msh.build_inclusion_mesh(ref_geom, 1.0 / 48, n_arc=128)
        for mesh in (coarse_cell_mesh, inclusion):
            got = msh._edge_incidence(mesh.triangles)
            for g, w in zip(got, unique_edges_reference(mesh.triangles)):
                np.testing.assert_array_equal(g, w)


def full_inclusion(geom, h, n_arc):
    return mirror_quarter(msh.build_inclusion_mesh(geom, h, n_arc=n_arc), geom)


class TestInclusionMesh:
    def test_valid_pure_inclusion(self, ref_geom):
        mesh = full_inclusion(ref_geom, 1.0 / 24, n_arc=64)
        validate_mesh(mesh)
        assert (mesh.subdomain == msh.Y2).all()
        assert (mesh.boundary_tags == msh.INCLUSION).all()
        assert mesh.boundary_edges.shape[0] == 64

    def test_measure_matches_inscribed_polygon(self, ref_geom):
        mesh = full_inclusion(ref_geom, 1.0 / 24, n_arc=64)
        exact = 0.5 * 64 * math.sin(2 * math.pi / 64) * ref_geom.a * ref_geom.b
        assert mesh.areas.sum() == pytest.approx(exact, rel=1e-12)

    def test_measure_matches_cell_mesh(self, ref_geom, coarse_cell_mesh):
        mesh = full_inclusion(ref_geom, 1.0 / 24, n_arc=128)
        assert mesh.areas.sum() == pytest.approx(
            coarse_cell_mesh.subdomain_measure(msh.Y2), rel=1e-12
        )

    def test_reflection_symmetry_of_vertex_set(self, ref_geom):
        mesh = full_inclusion(ref_geom, 1.0 / 24, n_arc=64)
        local = (mesh.vertices - np.array(ref_geom.center)) @ ref_geom.local_frame()
        key = {tuple(np.round(p, 12)) for p in local}
        for sx, sy in ((-1, 1), (1, -1), (-1, -1)):
            mirrored = {tuple(np.round(p * np.array([sx, sy]), 12)) for p in local}
            assert mirrored == key

    @pytest.mark.parametrize("h, n_arc, angle", [
        (1.0 / 24, 64, 30.0), (1.0 / 40, 8, 0.0), (0.00625, 384, 33.3),
    ])
    def test_quarter_is_cut_along_both_axes(self, h, n_arc, angle):
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=angle)
        quarter = msh.build_inclusion_mesh(geom, h, n_arc=n_arc)
        validate_mesh(quarter)
        assert quarter.n_vertices == msh.inclusion_mesh_vertices(geom.a, h, n_arc)
        local = (quarter.vertices - np.array(geom.center)) @ geom.local_frame()
        assert (local >= -1e-15).all()
        ends = local[quarter.boundary_edges]
        nr = math.ceil(geom.a / h)
        for tag, col, count in ((msh.MAJOR_AXIS, 0, nr), (msh.MINOR_AXIS, 1, nr),
                                (msh.INCLUSION, None, n_arc // 4)):
            sel = quarter.boundary_tags == tag
            assert sel.sum() == count
            if col is not None:
                assert np.abs(ends[sel][:, :, col]).max() <= 1e-15
        arc = np.unique(quarter.boundary_edges[quarter.boundary_tags == msh.INCLUSION])
        poly = geom.boundary_polygon(n_arc)[: n_arc // 4 + 1]
        np.testing.assert_allclose(
            np.sort(quarter.vertices[arc], axis=0), np.sort(poly, axis=0), atol=1e-15
        )
        exact = 0.125 * n_arc * math.sin(2 * math.pi / n_arc) * geom.a * geom.b
        assert quarter.areas.sum() == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("h, n_arc", [
        (1.0 / 24, 64), (1.0 / 24, 32), (1.0 / 40, 8), (0.0125, 192), (0.05, 400),
    ])
    def test_interior_count_is_the_eigenproblem_dofs(self, h, n_arc):
        geom = msh.CellGeometry(a=0.3, b=0.15, angle_deg=20.0)
        quarter = msh.build_inclusion_mesh(geom, h, n_arc=n_arc)
        count = ker.eigenproblem_dofs(quarter)
        (whole,) = fem.apply_constraints(full_inclusion(geom, h, n_arc),
                                         dirichlet_tags=(msh.INCLUSION,))
        assert whole.n_dofs == count
        # the symmetry classes the kernel solves on the quarter split them
        tags = [(msh.INCLUSION, *odd) for odd in
                ((), (msh.MAJOR_AXIS,), (msh.MINOR_AXIS,),
                 (msh.MAJOR_AXIS, msh.MINOR_AXIS))]
        assert sum(fem.apply_constraints(quarter, dirichlet_tags=t)[0].n_dofs
                   for t in tags) == count

    def test_arc_count_must_be_multiple_of_four(self, ref_geom):
        with pytest.raises(GeometryError):
            msh.build_inclusion_mesh(ref_geom, 1.0 / 24, n_arc=30)
        with pytest.raises(GeometryError):
            msh.build_inclusion_mesh(ref_geom, 1.0 / 24, n_arc=4)
        with pytest.raises(ValueError):
            msh.build_inclusion_mesh(ref_geom, 0.0)


def split_boundary_edge(mesh, a, b):
    """The mesh with a new vertex at the midpoint of boundary edge (a, b),
    a < b, splitting the one triangle on that edge."""
    v = mesh.n_vertices
    vertices = np.vstack([mesh.vertices, mesh.vertices[[a, b]].mean(axis=0)])
    k = np.flatnonzero(np.isin(mesh.triangles, [a, b]).sum(axis=1) == 2)[0]
    t = mesh.triangles[k]
    halves = np.array([np.where(t == b, v, t), np.where(t == a, v, t)])
    edge = np.flatnonzero((mesh.boundary_edges == [a, b]).all(axis=1))[0]
    edges = np.vstack([np.delete(mesh.boundary_edges, edge, axis=0), [[a, v], [v, b]]])
    return dataclasses.replace(
        mesh, vertices=vertices,
        triangles=np.vstack([np.delete(mesh.triangles, k, axis=0), halves]),
        subdomain=np.append(mesh.subdomain, mesh.subdomain[k]),
        boundary_edges=edges,
        boundary_tags=np.append(np.delete(mesh.boundary_tags, edge), [msh.OUTER] * 2),
    )


class TestPeriodicPairs:
    def test_pairs_are_unit_translations(self, coarse_cell_mesh):
        mesh = coarse_cell_mesh
        pairs = msh.periodic_pairs(mesh)
        assert pairs.size
        for s, m in pairs:
            delta = mesh.vertices[s] - mesh.vertices[m]
            np.testing.assert_allclose(delta, np.round(delta), atol=1e-12)
            assert np.abs(np.round(delta)).max() == 1.0

    def test_slave_count(self):
        pairs = msh.periodic_pairs(msh.build_unit_square_mesh(4))
        # right column (n+1) + top row (n+1) - shared corner counted once,
        # with all four corners folding onto the origin
        assert len(pairs) == 2 * 4 + 1

    def test_exact_pairs_of_a_small_square(self):
        # vertex 3j + i sits at (i/2, j/2); right and top pair onto left and
        # bottom, and the three other corners onto the origin
        pairs = msh.periodic_pairs(msh.build_unit_square_mesh(2))
        np.testing.assert_array_equal(pairs, [[2, 0], [5, 3], [6, 0], [7, 1], [8, 0]])
        assert pairs.dtype == np.int64

    # the corrector pairs its Y1 submesh; on a cell mesh, whose frame lies in
    # Y1, those are the full mesh's pairs renumbered, in the same order
    @pytest.mark.parametrize("h, n_arc, angle, center", [
        (1.0 / 48, 128, 30.0, (0.5, 0.5)),
        (1.0 / 24, 63, 0.0, (0.5, 0.5)),
        (1.0 / 32, 96, -41.0, (0.45, 0.5)),
    ])
    def test_y1_pairs_are_the_cell_pairs_renumbered(self, h, n_arc, angle, center):
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=angle, center=center)
        mesh = msh.build_cell_mesh(geom, h, n_arc=n_arc)
        y1, vmap = msh.submesh(mesh, msh.Y1)
        renum = -np.ones(mesh.n_vertices, dtype=np.int64)
        renum[vmap] = np.arange(vmap.size)
        np.testing.assert_array_equal(msh.periodic_pairs(y1),
                                      renum[msh.periodic_pairs(mesh)])

    def test_unpaired_side_vertex_raises(self):
        mesh = msh.build_unit_square_mesh(2)
        # a vertex on the right side only has no partner on the left; one on
        # the left side only leaves its master without a slave
        for a, b, match in ((2, 5, "mismatch"), (0, 3, "one to one")):
            split = split_boundary_edge(mesh, a, b)
            validate_mesh(split)
            with pytest.raises(PeriodicityError, match=match):
                msh.periodic_pairs(split)

    def test_mismatched_sides_raise(self):
        mesh = msh.build_unit_square_mesh(4)
        skewed = dataclasses.replace(
            mesh, vertices=mesh.vertices * np.array([1.0, 0.9])
        )
        with pytest.raises(PeriodicityError):
            msh.periodic_pairs(skewed)


class TestSubmesh:
    def test_partition_of_cell(self, coarse_cell_mesh):
        y1, vmap1 = msh.submesh(coarse_cell_mesh, msh.Y1)
        y2, vmap2 = msh.submesh(coarse_cell_mesh, msh.Y2)
        assert y1.areas.sum() + y2.areas.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(
            y2.vertices, coarse_cell_mesh.vertices[vmap2]
        )
        assert (y2.boundary_tags == msh.INCLUSION).all()
        assert (y1.boundary_tags == msh.INCLUSION).sum() == 128
        assert (y1.subdomain == msh.Y1).all()
        validate_mesh(y1)
        validate_mesh(y2)

    def test_edges_new_to_the_submesh_are_tagged_outer(self):
        mesh = msh.build_unit_square_mesh(4)
        left = mesh.vertices[mesh.triangles].mean(axis=1)[:, 0] < 0.5
        parent = dataclasses.replace(
            mesh,
            subdomain=np.where(left, msh.Y1, msh.Y2),
            boundary_tags=np.full_like(mesh.boundary_tags, msh.INCLUSION),
        )
        sub, vmap = msh.submesh(parent, msh.Y1)
        x = sub.vertices[sub.boundary_edges, 0]
        cut = (x == 0.5).all(axis=1)
        assert cut.sum() == 4
        assert (sub.boundary_tags[cut] == msh.OUTER).all()
        assert (sub.boundary_tags[~cut] == msh.INCLUSION).all()

    def test_unknown_label_raises(self, coarse_cell_mesh):
        with pytest.raises(ValueError):
            msh.submesh(coarse_cell_mesh, 7)

    def test_already_restricted_mesh_is_returned_itself(self, ref_geom):
        quarter = msh.build_inclusion_mesh(ref_geom, 1.0 / 24, n_arc=64)
        sub, vmap = msh.submesh(quarter, msh.Y2)
        assert sub is quarter
        np.testing.assert_array_equal(vmap, np.arange(quarter.n_vertices))


def assert_facts_are_fresh(mesh):
    """The mesh's cached edge incidence and areas equal, array for array and
    dtype for dtype, those computed afresh from its triangles."""
    fresh = (*msh._edge_incidence(mesh.triangles),
             msh._signed_areas(mesh.vertices[mesh.triangles]))
    for got, want in zip((*mesh.edge_incidence, mesh.areas), fresh):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestCachedFacts:
    @pytest.mark.parametrize("label", [msh.Y1, msh.Y2])
    def test_submesh_inherits_fresh_incidence_and_areas(self, coarse_cell_mesh,
                                                        label):
        sub, _ = msh.submesh(coarse_cell_mesh, label)
        assert {"edge_incidence", "areas"} <= vars(sub).keys()
        assert_facts_are_fresh(sub)

    @given(angle=st.floats(0.0, 180.0), h=st.floats(0.03, 0.08),
           n_arc=st.integers(10, 24).map(lambda q: 4 * q))
    @settings(max_examples=8, deadline=None)
    def test_submesh_facts_are_fresh_for_any_cell(self, angle, h, n_arc):
        cell = msh.build_cell_mesh(msh.CellGeometry(a=0.3, b=0.15, angle_deg=angle),
                                   h, n_arc)
        for label in (msh.Y1, msh.Y2):
            assert_facts_are_fresh(msh.submesh(cell, label)[0])

    def test_meshers_hand_over_their_incidence(self, ref_geom, coarse_cell_mesh,
                                               tmp_path):
        path = tmp_path / "cell.msh"
        write_msh(coarse_cell_mesh, path)
        for mesh in (coarse_cell_mesh, msh.build_unit_square_mesh(6),
                     msh.build_inclusion_mesh(ref_geom, 1.0 / 24, n_arc=64),
                     msh.read_msh(path)):
            assert {"edge_incidence", "areas"} <= vars(mesh).keys()
            assert_facts_are_fresh(mesh)


class TestGradients:
    def test_rows_sum_to_zero_and_reproduce_linear_gradients(self, coarse_cell_mesh):
        mesh = coarse_cell_mesh
        grads = mesh.gradients
        assert grads.shape == (mesh.n_triangles, 3, 2)
        assert np.abs(grads.sum(axis=1)).max() < 1e-11 * np.abs(grads).max()
        # u = 0.7 - 1.3 x1 + 2.1 x2 has sum_k u(x_k) grad(phi_k) = (-1.3, 2.1)
        u = 0.7 + mesh.vertices @ np.array([-1.3, 2.1])
        recovered = np.einsum("tk,tkj->tj", u[mesh.triangles], grads)
        assert np.abs(recovered - [-1.3, 2.1]).max() < 1e-12

    def test_equal_to_the_edge_normal_formula(self, coarse_cell_mesh):
        # grad(phi_k) is the edge opposite corner k turned by 90 degrees, over
        # twice the area: the formula the assembly used before the mesh held it
        p = coarse_cell_mesh.vertices[coarse_cell_mesh.triangles]
        b = np.stack(
            [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]],
            axis=1,
        )
        c = np.stack(
            [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]],
            axis=1,
        )
        reference = np.stack([b, c], axis=2) / (2.0 * coarse_cell_mesh.areas)[:, None, None]
        np.testing.assert_array_equal(coarse_cell_mesh.gradients, reference)


class TestValidateMesh:
    def test_flipped_triangle_rejected(self):
        mesh = msh.build_unit_square_mesh(2)
        tris = mesh.triangles.copy()
        tris[0] = tris[0][::-1]
        bad = dataclasses.replace(mesh, triangles=tris)
        with pytest.raises(ValueError):
            validate_mesh(bad)

    def test_nan_vertex_rejected(self):
        # every comparison with a NaN area is false, so the area test must
        # ask for positive areas rather than look for non-positive ones
        mesh = msh.build_unit_square_mesh(2)
        vertices = mesh.vertices.copy()
        vertices[4] = np.nan  # the one interior vertex
        bad = dataclasses.replace(mesh, vertices=vertices)
        with pytest.raises(ValueError, match="non-positively-oriented"):
            validate_mesh(bad)

    def test_missing_boundary_edge_rejected(self):
        mesh = msh.build_unit_square_mesh(2)
        bad = dataclasses.replace(
            mesh,
            boundary_edges=mesh.boundary_edges[1:],
            boundary_tags=mesh.boundary_tags[1:],
        )
        with pytest.raises(ValueError):
            validate_mesh(bad)

    def test_boundary_edge_absent_from_mesh_rejected(self):
        mesh = msh.build_unit_square_mesh(2)
        for extra in ([0, 8], [0, 100]):  # a diagonal; an unknown vertex
            bad = dataclasses.replace(
                mesh,
                boundary_edges=np.vstack([mesh.boundary_edges, extra]),
                boundary_tags=np.append(mesh.boundary_tags, msh.OUTER),
            )
            with pytest.raises(ValueError, match="not present"):
                validate_mesh(bad)


class TestSerialization:
    def test_msh_roundtrip(self, coarse_cell_mesh, tmp_path):
        path = tmp_path / "cell.msh"
        write_msh(coarse_cell_mesh, path)
        back = msh.read_msh(path)
        np.testing.assert_allclose(back.vertices, coarse_cell_mesh.vertices)
        np.testing.assert_array_equal(back.triangles, coarse_cell_mesh.triangles)
        np.testing.assert_array_equal(back.subdomain, coarse_cell_mesh.subdomain)
        tags = dict(zip(map(tuple, np.sort(back.boundary_edges, axis=1)),
                        back.boundary_tags))
        ref = dict(zip(map(tuple, np.sort(coarse_cell_mesh.boundary_edges, axis=1)),
                       coarse_cell_mesh.boundary_tags))
        assert tags == ref

    @pytest.mark.parametrize("edit", LINE_EDITS)
    def test_msh_boundary_comes_from_triangles(self, coarse_cell_mesh, tmp_path,
                                               edit):
        path = tmp_path / "cell.msh"
        write_msh(coarse_cell_mesh, path)
        intact = msh.read_msh(path)
        lines = edit_line_elements(path.read_text().splitlines(), edit)
        path.write_text("\n".join(lines) + "\n")
        back = msh.read_msh(path)
        for ref in (intact, coarse_cell_mesh):
            np.testing.assert_array_equal(back.boundary_edges, ref.boundary_edges)
            np.testing.assert_array_equal(back.boundary_tags, ref.boundary_tags)

    # the reader checks its own output as every mesher does: a triangle turned
    # against the rest of its subdomain, or one listed twice under a new id
    @pytest.mark.parametrize("defect, message", [
        ("clockwise", "degenerate triangle, or one listed clockwise"),
        ("duplicated", "an edge is shared by more than two triangles"),
    ])
    def test_msh_rejects_an_invalid_triangulation(self, tmp_path, defect, message):
        path = tmp_path / "cell.msh"
        write_msh(msh.build_unit_square_mesh(2), path)
        lines = path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.split()[1:2] == ["2"])
        parts = lines[k].split()
        if defect == "duplicated":
            start = lines.index("$Elements") + 1
            lines[start] = str(int(lines[start]) + 1)
            lines.insert(k + 1, " ".join(["999"] + parts[1:]))
        else:
            lines[k] = " ".join(parts[:-2] + parts[-1:] + parts[-2:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GeometryError, match=message):
            msh.read_msh(path)

    def test_msh_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MeshFormatError):
            msh.read_msh(path)

    @pytest.mark.parametrize("fmt, count, message", [
        ("2.2 0", "4", "is not 'version file-type data-size'"),
        ("", "4", "is not 'version file-type data-size'"),
        ("2.2 0 8", None, "empty \\$Nodes"),
        ("2.2 0 8", "nine", "line 'nine'"),
    ])
    def test_msh_rejects_bad_header_lines(self, tmp_path, fmt, count, message):
        nodes = "" if count is None else f"{count}\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n"
        path = tmp_path / "bad.msh"
        path.write_text(
            f"$MeshFormat\n{fmt}\n$EndMeshFormat\n$Nodes\n{nodes}$EndNodes\n"
            "$Elements\n1\n1 2 2 0 0 1 2 3\n$EndElements\n"
        )
        with pytest.raises(MeshFormatError, match=message):
            msh.read_msh(path)

    def test_msh_rejects_unterminated_section(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("$MeshFormat\n2.2 0 8\n")
        with pytest.raises(MeshFormatError):
            msh.read_msh(path)

    def test_msh_rejects_unsupported_elements(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 3 2 0 0 1 2 3 4\n$EndElements\n"  # quad
        )
        with pytest.raises(MeshFormatError):
            msh.read_msh(path)

    @pytest.mark.parametrize("mutate, bad_line", [
        (lambda f: f[:2], None),
        (lambda f: f[:-1], None),
        (lambda f: f[:-1] + ["999999"], None),
        (lambda f: f[:3], None),
        (None, "1 0.0"),
        (None, "1 nan 0.0 0"),
        (None, "1 0.0 -inf 0"),
        (None, "1 abc 0.0 0"),
        (lambda f: f[:3] + ["x"] + f[4:], None),
    ], ids=["short-element", "two-node-triangle", "unknown-node", "tags-cut-off",
            "short-node", "nan-node", "infinite-node", "non-numeric-node",
            "non-numeric-element"])
    def test_msh_rejects_malformed_lines(self, tmp_path, mutate, bad_line):
        path = tmp_path / "cell.msh"
        write_msh(msh.build_unit_square_mesh(2), path)
        lines = path.read_text().splitlines()
        if mutate is None:
            k = lines.index("$Nodes") + 2
        else:
            k = next(i for i, ln in enumerate(lines) if ln.split()[1:2] == ["2"])
            bad_line = " ".join(mutate(lines[k].split()))
        lines[k] = bad_line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError, match=f"line '{bad_line}'"):
            msh.read_msh(path)

"""Triangulations of the periodicity cell and the macroscopic domain.

All meshes are flat lists of vertices and positively oriented triangles with
per-triangle subdomain labels and tagged boundary edges.  The cell mesher
resolves the inclusion boundary exactly by an inscribed polygon whose edges
are mesh edges, and keeps the square-edge vertex layout mirror-identical on
opposite sides so that ``periodic_pairs`` matches them by coordinates.
Each mesh fact has one home: a mesher's size function is also its argument
check, ``submesh`` is the one restriction to a subdomain (a no-op on a mesh
already restricted), every other maker ends in the checks of ``_finish``,
and a TriMesh caches its areas, P1 gradients, edge incidence and P1 matrix
pattern.  Each is computed once per mesh: ``_finish`` hands over the
incidence and areas it computed, and ``submesh`` restricts its parent's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import GeometryError, MeshFormatError, PeriodicityError

# subdomain labels
OMEGA = 0
Y1 = 1
Y2 = 2
SUBDOMAIN_NAMES = {OMEGA: "Omega", Y1: "Y1", Y2: "Y2"}
SUBDOMAIN_CODES = {v: k for k, v in SUBDOMAIN_NAMES.items()}

# boundary edge tags
OUTER = 1
INCLUSION = 2
# the straight sides of a quarter inclusion mesh (see build_inclusion_mesh)
MAJOR_AXIS = 3
MINOR_AXIS = 4
SYMMETRY_AXES = (MAJOR_AXIS, MINOR_AXIS)

PAIRING_TOL = 1e-9


def _signed_areas(p: np.ndarray) -> np.ndarray:
    """Signed areas from an (nt, 3, 2) array of triangle corners."""
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangulation; treated as immutable after construction.

    A mesh is its object: meshes compare and hash by identity, so two
    meshes built alike are distinct.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    subdomain : (nt,) int array of labels (OMEGA, Y1, Y2)
    boundary_edges : (ne, 2) int array (includes material interfaces)
    boundary_tags : (ne,) int array of tags (OUTER, INCLUSION, and on a
        quarter inclusion MAJOR_AXIS, MINOR_AXIS)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    subdomain: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @classmethod
    def _with_facts(cls, *fields, **facts) -> TriMesh:
        """The mesh of ``fields`` whose cached properties named in ``facts``
        (``edge_incidence``, ``areas``) hold the values its maker computed."""
        mesh = cls(*fields)
        mesh.__dict__.update(facts)
        return mesh

    @cached_property
    def areas(self) -> np.ndarray:
        """Signed triangle areas (positive for valid meshes)."""
        return _signed_areas(self.vertices[self.triangles])

    @cached_property
    def edge_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_edge_incidence(self.triangles)``: unique edges, per-slot
        inverse map and multiplicities."""
        return _edge_incidence(self.triangles)

    @cached_property
    def p1_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, slots)``: the sorted CSR pattern of the P1
        matrices, and the position in it of each entry (t, i, j) of a raveled
        (nt, 3, 3) stack of element matrices.  The unique edges are its upper
        triangle in order; a stable sort by their higher end orders the lower."""
        uniq, inverse, _ = self.edge_incidence
        lo, hi = uniq.T
        n_up = np.bincount(lo, minlength=self.n_vertices)
        n_low = np.bincount(hi, minlength=self.n_vertices)
        diag = (n_up + n_low) > 0
        indptr = np.concatenate([[0], np.cumsum(n_low + diag + n_up)])
        at_diag = indptr[:-1] + n_low
        edge = np.arange(uniq.shape[0])
        by_hi = np.argsort(hi, kind="stable")
        lower = np.empty_like(edge)
        lower[by_hi] = edge + (indptr[:-1] - np.cumsum(n_low) + n_low)[hi[by_hi]]
        upper = edge + (at_diag + 1 - np.cumsum(n_up) + n_up)[lo]
        indices = np.empty(indptr[-1], dtype=np.int64)
        indices[lower], indices[upper] = lo, hi
        indices[at_diag[diag]] = np.flatnonzero(diag)
        # the edge of corner pair (i, j): slots (0, 1), (1, 2), (2, 0) in turn
        tri = self.triangles
        pair = inverse.reshape(3, -1).T[:, [[0, 0, 2], [0, 1, 1], [2, 1, 2]]]
        slots = np.concatenate([lower, upper])[pair + edge.size * (tri[:, :, None]
                                                                  < tri[:, None, :])]
        slots[:, [0, 1, 2], [0, 1, 2]] = at_diag[tri]
        return indptr, indices, slots.ravel()

    @cached_property
    def gradients(self) -> np.ndarray:
        """Constant P1 basis gradients (nt, 3, 2): row k of triangle t is
        the gradient of the hat function of its corner k."""
        p = self.vertices[self.triangles]
        b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1],
                      p[:, 0, 1] - p[:, 1, 1]], axis=1)
        c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0],
                      p[:, 1, 0] - p[:, 0, 0]], axis=1)
        return np.stack([b, c], axis=2) / (2.0 * self.areas)[:, None, None]

    def subdomain_measure(self, label: int) -> float:
        return float(self.areas[self.subdomain == label].sum())

    def tagged_vertices(self, tags) -> np.ndarray:
        """The vertices on boundary edges carrying one of the tag codes
        ``tags``, ascending."""
        return np.unique(self.boundary_edges[np.isin(self.boundary_tags, tags)])


@dataclass(frozen=True)
class CellGeometry:
    """Elliptic inclusion in the unit periodicity cell.

    Semi-axes ``a >= b > 0`` and piecewise-constant diffusion ``d1``
    (matrix) and ``d2`` (inclusion).  At ``angle_deg = 0`` the major
    semi-axis ``a`` points along the x2-axis; positive angles rotate the
    inclusion counterclockwise, so a 30-degree tilt puts the major axis at
    120 degrees from the x1-axis.  The ellipse must stay strictly inside
    the cell.
    """

    a: float
    b: float
    angle_deg: float = 0.0
    d1: float = 1.0
    d2: float = 1.0
    center: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if not (0.0 < self.b <= self.a):
            raise GeometryError(
                f"semi-axes must satisfy 0 < b <= a, got a={self.a}, b={self.b}"
            )
        # every stiffness entry, rate and residual scales with d, and the
        # stages square them in norms; up to 1e100 those squares stay finite
        if not (0.0 < self.d1 <= 1e100 and 0.0 < self.d2 <= 1e100):
            raise GeometryError("diffusion coefficients must be positive and finite "
                                "(at most 1e100)")
        if not math.isfinite(self.angle_deg):
            raise GeometryError(f"inclusion angle must be finite, got {self.angle_deg}")
        cx, cy = self.center
        ex, ey = self.extents()
        if cx - ex <= 0.0 or cx + ex >= 1.0 or cy - ey <= 0.0 or cy + ey >= 1.0:
            raise GeometryError("ellipse is not strictly inside the unit cell")

    def local_frame(self) -> np.ndarray:
        """Rotation matrix mapping local (minor, major) coordinates to global.

        Local coordinates put semi-axis ``b`` along the first component and
        ``a`` along the second; the columns of the returned matrix are the
        global directions of the two ellipse axes.
        """
        w = math.radians(self.angle_deg)
        return np.array([[math.cos(w), -math.sin(w)],
                         [math.sin(w), math.cos(w)]])

    def extents(self) -> tuple[float, float]:
        """Half-widths of the axis-aligned bounding box of the ellipse."""
        t = math.radians(self.angle_deg)
        ex = math.hypot(self.b * math.cos(t), self.a * math.sin(t))
        ey = math.hypot(self.b * math.sin(t), self.a * math.cos(t))
        return ex, ey

    @property
    def inclusion_measure(self) -> float:
        """Exact ellipse area pi*a*b."""
        return math.pi * self.a * self.b

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Per point, whether it lies strictly inside the ellipse."""
        local = (points - np.asarray(self.center)) @ self.local_frame()
        with np.errstate(over="ignore"):  # a tiny axis overflows to inf, still outside
            return (local[:, 0] / self.b) ** 2 + (local[:, 1] / self.a) ** 2 < 1.0

    def boundary_polygon(self, n_arc: int) -> np.ndarray:
        """Inscribed n_arc-gon of the ellipse, counterclockwise."""
        if n_arc < 8:
            raise GeometryError("n_arc must be at least 8")
        t = 2.0 * np.pi * np.arange(n_arc) / n_arc
        q = np.column_stack([self.b * np.cos(t), self.a * np.sin(t)])
        return q @ self.local_frame().T + np.asarray(self.center)


def _check_spacing_and_arcs(kind: str, h: float, n_arc: int) -> None:
    if not 0.0 < h < math.inf:  # also catches NaN
        raise ValueError(f"{kind} mesh spacing h must be positive and finite, got {h}")
    if n_arc < 8:
        raise GeometryError(f"{kind} mesh n_arc must be at least 8, got {n_arc}")


def _edge_keys(edges: np.ndarray, nv: int) -> np.ndarray:
    """One int64 per undirected edge, ``lo * nv + hi``; needs ``nv`` above
    every vertex index.  Keys sort in the lexicographic order of (lo, hi)."""
    e = np.asarray(edges, dtype=np.int64)
    return np.minimum(e[:, 0], e[:, 1]) * nv + np.maximum(e[:, 0], e[:, 1])


def _edge_incidence(triangles: np.ndarray):
    """Unique sorted edges, their multiplicities, and per-slot inverse map.

    Slots run over the edges (0,1), (1,2), (2,0) of every triangle in turn.
    """
    nv = int(triangles.max()) + 1
    slots = np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    keys, inverse, counts = np.unique(
        _edge_keys(slots, nv), return_inverse=True, return_counts=True
    )
    return np.column_stack([keys // nv, keys % nv]), inverse, counts


def _tag_edges(uniq: np.ndarray, inverse: np.ndarray, counts: np.ndarray,
               subdomain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges and tags that the triangles' ``_edge_incidence`` and
    their labels define: the open edges tagged OUTER, then the edges shared
    by a Y1 and a Y2 triangle tagged INCLUSION, each in ascending edge-key
    order."""
    label_sum = np.bincount(inverse, weights=np.tile(subdomain, 3),
                            minlength=counts.size)
    outer = counts == 1
    interface = (counts == 2) & (label_sum == Y1 + Y2)
    tags = np.repeat([OUTER, INCLUSION], [outer.sum(), interface.sum()])
    return np.vstack([uniq[outer], uniq[interface]]), tags


def _finish(points: np.ndarray, triangles: np.ndarray, subdomain: np.ndarray,
            boundary=_tag_edges) -> TriMesh:
    """The mesh of ``triangles`` on ``points`` with labels ``subdomain``, and
    the end of every mesh maker but ``submesh``.  A signed area not above
    1e-14 (NaN too) or an edge in more than two triangles is a GeometryError.
    The boundary is ``boundary(uniq, inverse, counts, subdomain)`` of the
    triangles' ``_edge_incidence``, which the mesh keeps with the areas."""
    areas = _signed_areas(points[triangles])
    if not areas.min() > 1e-14:  # also catches NaN
        raise GeometryError("triangulation produced a degenerate triangle, "
                            "or one listed clockwise")
    incidence = _edge_incidence(triangles)
    if incidence[2].max() > 2:
        raise GeometryError("non-conforming triangulation: an edge is shared by "
                            "more than two triangles")
    return TriMesh._with_facts(points, triangles, subdomain,
                               *boundary(*incidence, subdomain),
                               edge_incidence=incidence, areas=areas)


def _fix_orientation(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    flip = _signed_areas(vertices[triangles]) < 0.0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _grid_halves(squares: np.ndarray, n: int, renum: np.ndarray) -> np.ndarray:
    """The two triangles of each listed square (row by row) of an n x n
    grid, split along the bottom-left to top-right diagonal: all lower
    halves, then all upper halves; ``renum`` maps the grid points (row by
    row) to vertex indices."""
    v00 = squares + squares // n  # the square's bottom-left grid point
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    quads = renum[np.column_stack([v00, v10, v11, v01])]
    return np.vstack([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]])


def build_unit_square_mesh(n: int, label: int = OMEGA) -> TriMesh:
    """Structured mesh of the unit square with 2*n^2 right triangles.

    Every cell is split along the bottom-left to top-right diagonal; all
    triangles carry ``label`` (default OMEGA; pass Y1 for an inclusion-free
    periodicity cell) and the boundary is tagged OUTER.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    coords = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    triangles = _grid_halves(np.arange(n * n), n, np.arange((n + 1) ** 2))
    return _finish(vertices, triangles, np.full(triangles.shape[0], label, dtype=int))


def _segment_gaps(points: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Distance from each point to the segment from ``a`` to ``a + d``, row
    for row; the three arrays broadcast against each other."""
    t = np.clip(((points - a) * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
    gap = points - (a + t[..., None] * d)
    return np.sqrt((gap * gap).sum(axis=-1))


def _longest_edge(poly: np.ndarray) -> float:
    return float(np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1).max())


def _clear_of_polygon(points: np.ndarray, tree: cKDTree, clear: float) -> np.ndarray:
    """Per point, whether it lies at least ``clear`` from the closed polygon
    whose vertices ``tree`` holds in order, exactly as if every point were
    tested against every edge.

    A point nearer than ``clear`` to an edge lies within ``clear`` plus half
    the longest edge of one of the edge's ends, so one ball query of that
    radius finds every edge that can be that near, and the points it finds
    get exact distances to those edges only.
    """
    poly = tree.data
    max_edge = _longest_edge(poly)
    radius = clear + 0.5 * max_edge
    band = np.flatnonzero(np.isfinite(
        tree.query(points, distance_upper_bound=radius)[0]))
    near = cKDTree(points[band]).sparse_distance_matrix(
        tree, radius, output_type="ndarray")
    # the edges at each vertex found: edge k runs from vertex k to k + 1
    row = np.concatenate([near["i"], near["i"]])
    edge = np.concatenate([near["j"], near["j"] - 1]) % poly.shape[0]
    d = np.roll(poly, -1, axis=0) - poly
    close = _segment_gaps(points[band[row]], poly[edge], d[edge]) < clear
    is_clear = np.ones(points.shape[0], dtype=bool)
    is_clear[band[row[close]]] = False
    return is_clear


def build_cell_mesh(geom: CellGeometry, h: float, n_arc: int = 128) -> TriMesh:
    """Mesh the unit cell with the inclusion boundary resolved exactly.

    A structured grid of spacing ~h is combined with the inscribed
    ``n_arc``-gon of the ellipse; grid points inside a clearance band around
    the polygon are removed so that every polygon edge is guaranteed to be a
    Delaunay edge (empty diametral circles).  Square-edge vertices are never
    moved, which keeps opposite sides mirror-identical, so that they pair.
    Triangles are labeled Y2 inside the polygon and Y1 outside; polygon edges
    are tagged INCLUSION, the square frame OUTER.

    A grid square is untouched when its four corners are kept and no polygon
    vertex lies within its circumradius (widened slightly) of its centre;
    untouched squares are split along the bottom-left to top-right diagonal
    directly.  The other squares, widened by one ring of squares, are the
    band: a Delaunay triangulation of their kept corners and the polygon
    vertices, of which the simplices of positive area whose centroid lies
    in a band square are kept.  The two parts are not assumed to conform:
    the mesh is checked to tile the unit square (triangle areas sum to 1, no
    edge is shared by more than two triangles, every open edge lies on the
    frame) with the polygon as its material interface.

    Polygon queries are local, so memory grows with the grid and not with
    grid times ``n_arc``: one k-d tree on the polygon vertices picks the thin
    band of grid points that need exact point-segment distances, to nearby
    edges only, and the touched squares.  Every kept grid point is sided by
    the ellipse equation, which sides it as the polygon does because it is
    kept clear of the caps between polygon and ellipse.  Edges are compared
    as one integer key each.
    """
    cell_mesh_vertices(h, n_arc)  # the argument check
    poly = geom.boundary_polygon(n_arc)

    clear = max(0.35 * h, 0.55 * _longest_edge(poly))
    frame_gap = np.minimum(poly, 1.0 - poly).min()
    if frame_gap <= clear + 0.25 * h:
        raise GeometryError(
            "inclusion too close to the cell boundary for mesh spacing "
            f"h={h} (gap {frame_gap:.3e}, required > {clear + 0.25 * h:.3e})"
        )

    n = _grid_count(h)
    # no size guard here: later arrays (the edge table) outgrow the grid;
    # the CLI refuses meshes above cli._MAX_VERTICES before any stage runs
    grid = np.empty(((n + 1) ** 2, 2))
    coords = np.linspace(0.0, 1.0, n + 1)
    grid[:, 0] = np.tile(coords, n + 1)
    grid[:, 1] = np.repeat(coords, n + 1)
    tree = cKDTree(poly)
    is_clear = _clear_of_polygon(grid, tree, clear)
    points = np.vstack([grid[is_clear], poly])
    n_grid = points.shape[0] - n_arc

    # squares row by row; a touched square has a removed corner or a polygon
    # vertex on or near its circumcircle.  With one more ring as a margin,
    # the band's border squares keep all four corners and hold no polygon
    # vertex in their circumcircles, so their sides, where the directly
    # split squares meet the band, are edges of the band's triangulation
    kept = is_clear.reshape(n + 1, n + 1)
    touched = ~(kept[:-1, :-1] & kept[:-1, 1:] & kept[1:, :-1] & kept[1:, 1:])
    mid = 0.5 * (coords[:-1] + coords[1:])
    centres = np.column_stack([np.tile(mid, n), np.repeat(mid, n)])
    radius = (1.0 + 1e-6) * math.sqrt(0.5) / n
    near = np.isfinite(tree.query(centres, distance_upper_bound=radius)[0])
    touched |= near.reshape(n, n)
    padded = np.pad(touched, 1)
    band = np.zeros_like(touched)
    for dy in range(3):
        for dx in range(3):
            band |= padded[dy:dy + n, dx:dx + n]

    renum = np.cumsum(is_clear) - 1
    whole = _grid_halves(np.flatnonzero(~band.ravel()), n, renum)
    padded = np.pad(band, 1)
    on_band = padded[:-1, :-1] | padded[:-1, 1:] | padded[1:, :-1] | padded[1:, 1:]
    delaunay = np.concatenate([renum[np.flatnonzero(on_band.ravel() & is_clear)],
                               n_grid + np.arange(n_arc)])
    simplices = delaunay[np.asarray(Delaunay(points[delaunay]).simplices,
                                    dtype=np.int64)]
    corners = points[simplices]
    # Qhull also returns flat simplices on collinear grid points, whose area
    # is round-off: far below that of any real triangle of the same span
    span = ((corners - np.roll(corners, 1, axis=1)) ** 2).sum(axis=2).max(axis=1)
    square = np.clip((corners.mean(axis=1) * n).astype(np.int64), 0, n - 1)
    keep = ((np.abs(_signed_areas(corners)) > 1e-10 * span)
            & band[square[:, 1], square[:, 0]])
    triangles = np.vstack([whole, _fix_orientation(points, simplices[keep])])

    # a point between the polygon and the ellipse lies within the arc's cap
    # height of the polygon, at most 0.1 of the longest edge, and every kept
    # grid point lies at least ``clear`` from it: the ellipse equation sides
    # the kept points as the polygon does.  The polygon is convex, so once
    # every polygon edge is a mesh edge, a triangle lies inside the polygon
    # exactly when each of its corners is a polygon vertex or an inside
    # point; the interface check below establishes that premise
    in_y2 = np.concatenate([geom.contains(grid[is_clear]), np.ones(n_arc, dtype=bool)])
    mesh = _finish(points, triangles, np.where(in_y2[triangles].all(axis=1), Y2, Y1))
    if abs(float(mesh.areas.sum()) - 1.0) > 1e-12:
        raise GeometryError("cell triangles do not tile the unit square")

    # equal interface keys also mean that every polygon edge is a mesh edge
    nv = points.shape[0]
    ring = n_grid + np.arange(n_arc)
    wanted = np.sort(_edge_keys(np.column_stack([ring, np.roll(ring, -1)]), nv))
    interface = _edge_keys(mesh.boundary_edges[mesh.boundary_tags == INCLUSION], nv)
    if not np.array_equal(interface, wanted):
        raise GeometryError(
            "material interface does not match the inclusion polygon; "
            "decrease n_arc or refine h"
        )
    # per vertex, whether it lies on each of the four sides of the frame
    sides = np.isclose(points[:, :, None], [0.0, 1.0]).reshape(nv, 4)
    ends = mesh.boundary_edges[mesh.boundary_tags == OUTER]
    if not (sides[ends[:, 0]] & sides[ends[:, 1]]).any(axis=1).all():
        raise GeometryError("open boundary edge off the unit square frame")
    return mesh


def _grid_count(h: float) -> int:
    """Squares per side of the cell mesher's grid of spacing ~h."""
    return max(2, int(round(1.0 / h)))


def cell_mesh_vertices(h: float, n_arc: int) -> int:
    """Upper bound on the vertices of ``build_cell_mesh(geom, h, n_arc)``
    for any ``geom``: every grid point and every polygon vertex.  An ``h``
    or ``n_arc`` the mesher refuses raises here; this is its argument check."""
    _check_spacing_and_arcs("cell", h, n_arc)
    return (_grid_count(h) + 1) ** 2 + n_arc


def _quarter_rings(a: float, h: float, n_arc: int) -> np.ndarray:
    """Arc segments of each ring j = 1..nr (radius j/nr) of the quarter unit
    disk that ``build_inclusion_mesh(geom, h, n_arc)`` lays for a ``geom``
    with major semi-axis ``a``: nr = ceil(a/h), at least 2, and the last
    ring has the n_arc/4 arc segments.  An ``h`` or ``n_arc`` the mesher
    refuses raises here; this is its argument check."""
    _check_spacing_and_arcs("inclusion", h, n_arc)
    if n_arc % 4:
        raise GeometryError(f"inclusion mesh n_arc must be a multiple of 4, got {n_arc}")
    nr = max(2, math.ceil(a / h))
    j = np.arange(1, nr + 1)
    return np.maximum(1, np.round(n_arc // 4 * (j / nr))).astype(np.int64)


def inclusion_mesh_vertices(a: float, h: float, n_arc: int) -> int:
    """Vertices of ``build_inclusion_mesh(geom, h, n_arc)`` for a ``geom``
    with major semi-axis ``a``: the centre and each ring's segments plus
    one.  An ``h`` or ``n_arc`` the mesher refuses raises here."""
    segs = _quarter_rings(a, h, n_arc)
    return 1 + segs.size + int(segs.sum())


def build_inclusion_mesh(geom: CellGeometry, h: float, n_arc: int = 256) -> TriMesh:
    """Mesh one quarter of the inclusion, bounded by the two ellipse half-axes.

    The inclusion is mirror-symmetric about both ellipse axes, so the kernel
    stage solves its eigenproblem on this quarter, one symmetry class at a
    time (``kernel.build_kernel``); the full inclusion is the quarter and its
    three reflections.  A quarter unit disk is meshed with concentric rings
    (radial spacing set by ``h`` along the major semi-axis, angular
    resolution by ``n_arc``), scaled to the semi-axes, and rotated into
    place.  The arc is tagged INCLUSION; its vertices are the quarter of
    ``geom.boundary_polygon(n_arc)`` from the minor to the major semi-axis,
    so four times the quarter's measure is the measure of a cell mesh built
    with the same ``n_arc``.  The straight sides are tagged MAJOR_AXIS
    (on the major semi-axis, local coordinate x = 0) and MINOR_AXIS (on the
    minor semi-axis, y = 0); their vertices lie exactly on the axes.
    """
    segs = _quarter_rings(geom.a, h, n_arc)
    quarter_arc, nr = n_arc // 4, segs.size

    # the centre and the rings, axis points exact (sizes are gated by the
    # CLI's cli._MAX_VERTICES before any stage runs, not here)
    per_ring = segs + 1
    local = np.empty((1 + int(per_ring.sum()), 2))
    ring_start = np.cumsum(per_ring) - per_ring
    seg = np.repeat(segs, per_ring)
    k = np.arange(local.shape[0] - 1) - np.repeat(ring_start, per_ring)
    t = 0.5 * np.pi * k / seg
    rho = np.repeat(np.arange(1, nr + 1) / nr, per_ring)
    local[0] = 0.0
    local[1:, 0] = np.where(k == seg, 0.0, rho * np.cos(t))
    local[1:, 1] = rho * np.sin(t)
    tri = Delaunay(local)
    if np.asarray(tri.coplanar).size:
        raise GeometryError("quarter-disk triangulation dropped input points")
    triangles = _fix_orientation(local, np.asarray(tri.simplices, dtype=np.int64))

    def by_axis(uniq, inverse, counts, subdomain):  # the open edges
        on_axis = (local[uniq[counts == 1]] == 0.0).all(axis=1)  # x = 0, y = 0
        return uniq[counts == 1], np.select([on_axis[:, 0], on_axis[:, 1]],
                                            [MAJOR_AXIS, MINOR_AXIS], INCLUSION)

    points = (local * np.array([geom.b, geom.a])) @ geom.local_frame().T
    points += np.asarray(geom.center)
    mesh = _finish(points, triangles, np.full(triangles.shape[0], Y2, dtype=np.int64),
                   boundary=by_axis)
    sides = [int((mesh.boundary_tags == tag).sum())
             for tag in (INCLUSION, MAJOR_AXIS, MINOR_AXIS)]
    if sides != [quarter_arc, nr, nr]:
        raise GeometryError("inclusion mesh boundary does not close the quarter")
    quarter_area = 0.125 * n_arc * math.sin(2.0 * np.pi / n_arc) * geom.a * geom.b
    if abs(float(mesh.areas.sum()) - quarter_area) > 1e-10 * quarter_area:
        raise GeometryError("inclusion mesh area mismatch")
    return mesh


def periodic_pairs(mesh: TriMesh) -> np.ndarray:
    """The (n_pairs, 2) int64 array of (slave, master) periodic vertex
    pairs of the mesh, ascending by slave.

    Every outer vertex on the right or top side is a slave: translated by
    one cell width off each of those sides it lies on, it must land within
    PAIRING_TOL of a left or bottom vertex, its master.  A master on k of
    the left/bottom sides takes exactly 2**k - 1 slaves, so each side
    vertex pairs one to one and the three non-origin corners all map to the
    corner at the origin.  A vertex off the frame, a gap above tolerance or
    sides that do not pair one to one raise PeriodicityError.
    """
    outer = mesh.tagged_vertices(OUTER)
    if outer.size == 0:
        raise PeriodicityError("mesh has no outer boundary to pair")
    xy = mesh.vertices[outer]
    low = np.abs(xy) <= PAIRING_TOL  # columns: on the left, on the bottom
    high = np.abs(xy - 1.0) <= PAIRING_TOL  # on the right, on the top
    if not (low | high).any(axis=1).all():
        raise PeriodicityError("outer boundary vertex off the unit square frame")
    slave = high.any(axis=1)
    master = low.any(axis=1) & ~slave
    gap, nearest = cKDTree(xy[master]).query(xy[slave] - high[slave])
    if gap.max(initial=0.0) > PAIRING_TOL:
        raise PeriodicityError(
            f"opposite-side vertex mismatch {gap.max():.3e} > {PAIRING_TOL:.1e}"
        )
    taken = np.bincount(nearest, minlength=int(master.sum()))
    if not np.array_equal(taken, 2 ** low[master].sum(axis=1) - 1):
        raise PeriodicityError("opposite sides do not pair one to one")
    return np.column_stack([outer[slave], outer[master][nearest]])


def submesh(mesh: TriMesh, label: int) -> tuple[TriMesh, np.ndarray]:
    """Restrict the mesh to the triangles with subdomain ``label``.

    Returns the renumbered submesh and the map from its vertex indices back
    to the parent mesh.  Parent boundary tags are kept where they apply.
    A mesh whose every triangle carries the label is already restricted:
    it is returned itself, with the identity map.  The submesh inherits the
    parent's areas and edge incidence, restricted: the renumbering keeps
    the vertex order, so the parent's used edges stay in key order.
    """
    keep = mesh.subdomain == label
    if not keep.any():
        raise ValueError(f"no triangles with label {label}")
    if keep.all():
        return mesh, np.arange(mesh.n_vertices)
    tris = mesh.triangles[keep]
    nv = mesh.n_vertices
    used = np.zeros(nv, dtype=bool)
    used[tris] = True
    vmap = np.flatnonzero(used)
    renum = np.cumsum(used) - 1

    uniq, inverse, _ = mesh.edge_incidence
    slot_edges = inverse.reshape(3, -1)[:, keep].ravel()
    counts = np.bincount(slot_edges, minlength=uniq.shape[0])
    kept = counts > 0
    uniq, counts = uniq[kept], counts[kept]
    incidence = (renum[uniq], (np.cumsum(kept) - 1)[slot_edges], counts)
    parent_keys = _edge_keys(mesh.boundary_edges, nv)
    order = np.argsort(parent_keys, kind="stable")
    parent_keys = parent_keys[order]
    # a parent edge listed twice keeps its last tag, as a dict would
    query = _edge_keys(uniq[counts == 1], nv)
    pos = np.searchsorted(parent_keys, query, side="right") - 1
    found = pos >= 0
    found[found] = parent_keys[pos[found]] == query[found]
    tags = np.full(query.size, OUTER, dtype=int)
    tags[found] = mesh.boundary_tags[order[pos[found]]]
    sub = TriMesh._with_facts(mesh.vertices[vmap], renum[tris], mesh.subdomain[keep],
                              incidence[0][counts == 1], tags,
                              edge_incidence=incidence, areas=mesh.areas[keep])
    return sub, vmap


_MSH_LINE = 1
_MSH_TRIANGLE = 2
_MSH_POINT = 15
_MSH_NODE_COUNTS = {_MSH_LINE: 2, _MSH_TRIANGLE: 3, _MSH_POINT: 1}


def _msh_number(kind, field: str, section: str, line: str):
    """``kind(field)`` for a field of ``line`` in ``section``; a field that
    does not convert is a MeshFormatError quoting the line."""
    try:
        return kind(field)
    except ValueError:
        raise MeshFormatError(
            f"${section} line {line!r} has a non-numeric field {field!r}") from None


def read_msh(path, subdomain_map: dict[int, str] | None = None) -> TriMesh:
    """Read the ASCII MSH 2.2 subset: nodes, 3-node triangles, and 2-node
    line and 1-node point elements, which are checked and then ignored.

    Physical-group integers select the subdomain labels of triangles through
    ``subdomain_map`` (by default ``SUBDOMAIN_NAMES``); a map value that is
    not a subdomain name is a ValueError, and any other defect of the file a
    MeshFormatError.  Each subdomain is turned counterclockwise as a whole,
    then checked by ``_finish`` as a mesher's output is, so a triangle listed
    against the rest of its subdomain, or twice, is a GeometryError.  The
    boundary is the open edges, tagged OUTER, and the edges between Y1 and
    Y2, tagged INCLUSION.
    """
    sub_map = SUBDOMAIN_NAMES if subdomain_map is None else subdomain_map
    for name in sub_map.values():
        if name not in SUBDOMAIN_NAMES.values():
            raise ValueError(f"subdomain map value {name!r} is not one of "
                             f"{', '.join(SUBDOMAIN_NAMES.values())}")

    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    sections: dict[str, list[str]] = {}
    name = None  # of the open section, whose lines go into body
    for ln in lines:
        if name is None and ln.startswith("$") and not ln.startswith("$End"):
            name, body = ln[1:], []
        elif name is not None and ln == f"$End{name}":
            sections[name], name = body, None
        elif name is not None:
            body.append(ln)
    if name is not None:
        raise MeshFormatError(f"unterminated section ${name}")

    if "MeshFormat" not in sections:
        raise MeshFormatError("missing $MeshFormat section")
    fmt = " ".join(sections["MeshFormat"][:1]).split()
    if len(fmt) != 3:
        raise MeshFormatError("$MeshFormat line is not 'version file-type data-size'")
    if fmt[0] != "2.2":
        raise MeshFormatError(f"unsupported MSH version {fmt[0]} (need 2.2)")
    if fmt[1] != "0":
        raise MeshFormatError("binary MSH files are not supported")
    if not (sections.get("Nodes") and sections.get("Elements")):
        raise MeshFormatError("missing or empty $Nodes or $Elements section")

    node_lines = sections["Nodes"]
    n_nodes = _msh_number(int, node_lines[0], "Nodes", node_lines[0])
    if len(node_lines) - 1 != n_nodes:
        raise MeshFormatError("node count does not match $Nodes header")
    ids = np.empty(n_nodes, dtype=np.int64)
    coords = np.empty((n_nodes, 2))
    for k, ln in enumerate(node_lines[1:]):
        parts = ln.split()
        if len(parts) != 4:
            raise MeshFormatError(f"$Nodes line {ln!r} is not 'id x y z'")
        ids[k] = _msh_number(int, parts[0], "Nodes", ln)
        x, y, _ = (_msh_number(float, p, "Nodes", ln) for p in parts[1:])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError(f"$Nodes line {ln!r} has a non-finite coordinate")
        coords[k] = (x, y)
    renum = {int(v): k for k, v in enumerate(ids)}

    tris, sub = [], []
    elem_lines = sections["Elements"]
    n_elements = _msh_number(int, elem_lines[0], "Elements", elem_lines[0])
    if len(elem_lines) - 1 != n_elements:
        raise MeshFormatError("element count does not match $Elements header")
    for ln in elem_lines[1:]:
        parts = [_msh_number(int, p, "Elements", ln) for p in ln.split()]
        if len(parts) < 3 or len(parts) < 3 + parts[2]:
            raise MeshFormatError(f"$Elements line {ln!r} is too short")
        etype, ntags = parts[1], parts[2]
        phys = parts[3] if ntags >= 1 else 0
        nodes = parts[3 + ntags:]
        if etype not in _MSH_NODE_COUNTS:
            raise MeshFormatError(f"unsupported element type {etype}")
        if len(nodes) != _MSH_NODE_COUNTS[etype]:
            raise MeshFormatError(
                f"$Elements line {ln!r} does not list {_MSH_NODE_COUNTS[etype]} nodes"
            )
        unknown = [v for v in nodes if v not in renum]
        if unknown:
            raise MeshFormatError(f"$Elements line {ln!r} names unknown nodes {unknown}")
        if etype == _MSH_TRIANGLE:
            if phys not in sub_map:
                raise MeshFormatError(f"unmapped physical group {phys} for a triangle")
            tris.append([renum[v] for v in nodes])
            sub.append(SUBDOMAIN_CODES[sub_map[phys]])
    if not tris:
        raise MeshFormatError("file contains no triangles")

    # a mesher orients all triangles of a surface one way: turn each
    # subdomain counterclockwise as a whole, so that a triangle listed
    # against its neighbours stays negative for _finish to refuse
    triangles = np.asarray(tris, dtype=np.int64)
    subdomain = np.asarray(sub, dtype=int)
    turn = np.bincount(subdomain, weights=_signed_areas(coords[triangles]))
    flip = turn[subdomain] < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return _finish(coords, triangles, subdomain)

"""P1 finite element assembly on triangle meshes.

Stiffness, mass, and corrector right-hand sides are assembled with exact
per-element integration (gradients are constant, the mass element is the
standard area/12 matrix).  Constraint application folds periodic slaves
onto their masters, eliminates homogeneous Dirichlet rows/columns, and can
border the system with a discrete zero-mean row for pure-Neumann problems.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mesh as msh
from .mesh import TriMesh

_MASS_ELEMENT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class DofMap:
    """Vertex-to-dof bookkeeping produced by apply_constraints.

    ``vertex_to_dof`` maps every mesh vertex to its retained dof (slaves map
    to the master's dof, Dirichlet vertices to -1).  When a zero-mean row is
    appended, the multiplier occupies index ``n_dofs`` of the bordered
    system and ``multiplier_index`` is set.
    """

    vertex_to_dof: np.ndarray
    dirichlet_vertices: np.ndarray
    slave_vertices: np.ndarray
    n_dofs: int
    multiplier_index: int | None = None
    multiplier_scale: float = 1.0

    @property
    def n_system(self) -> int:
        return self.n_dofs + (1 if self.multiplier_index is not None else 0)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Nodal values on all mesh vertices (zeros on Dirichlet vertices)."""
        full = np.zeros(self.vertex_to_dof.shape[0])
        free = self.vertex_to_dof >= 0
        full[free] = x[self.vertex_to_dof[free]]
        return full

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Values of the retained dofs read off a full vertex vector."""
        out = np.zeros(self.n_dofs)
        free = self.vertex_to_dof >= 0
        out[self.vertex_to_dof[free]] = full[free]
        return out

    def reduce(self, full: np.ndarray) -> np.ndarray:
        """Load vector folded onto the system: slave entries add into their
        masters, Dirichlet entries drop, the multiplier row (if any) is 0."""
        free = self.vertex_to_dof >= 0
        return np.bincount(self.vertex_to_dof[free], weights=full[free],
                           minlength=self.n_system)

    def multiplier(self, x: np.ndarray) -> float:
        if self.multiplier_index is None:
            raise ValueError("system has no zero-mean multiplier")
        return float(x[self.multiplier_index]) / self.multiplier_scale


def triangle_gradients(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Areas (nt,) and constant P1 basis gradients (nt, 3, 2)."""
    p = mesh.vertices[mesh.triangles]
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]],
        axis=1,
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]],
        axis=1,
    )
    areas = mesh.areas
    grads = np.stack([b, c], axis=2) / (2.0 * areas)[:, None, None]
    return areas, grads


def _triangle_mask(mesh: TriMesh, subdomains) -> np.ndarray:
    if subdomains is None:
        return np.ones(mesh.n_triangles, dtype=bool)
    labels = {subdomains} if np.isscalar(subdomains) else set(subdomains)
    mask = np.isin(mesh.subdomain, list(labels))
    if not mask.any():
        raise ValueError(f"no triangles in subdomains {sorted(labels)}")
    return mask


def _coefficient_tensor(coeff) -> np.ndarray:
    """Validate and return the 2x2 SPD diffusion tensor for a scalar/matrix."""
    d = np.asarray(coeff, dtype=float)
    if d.ndim == 0:
        if d <= 0.0:
            raise ValueError(f"scalar coefficient must be positive, got {coeff}")
        return float(d) * np.eye(2)
    if d.shape != (2, 2):
        raise ValueError(f"tensor coefficient must be 2x2, got shape {d.shape}")
    if np.abs(d - d.T).max() > 1e-12 * max(1.0, np.abs(d).max()):
        raise ValueError("tensor coefficient must be symmetric")
    if np.linalg.eigvalsh(d).min() <= 0.0:
        raise ValueError("tensor coefficient must be positive definite")
    return d


def _scatter(mesh: TriMesh, mask: np.ndarray, element: np.ndarray) -> sp.csr_matrix:
    tris = mesh.triangles[mask]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, 3).ravel()
    a = sp.coo_matrix(
        (element.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    ).tocsr()
    a.sort_indices()
    return a


def assemble_stiffness(mesh: TriMesh, coeff, subdomains=None) -> sp.csr_matrix:
    """Stiffness matrix for -div(coeff grad u) over the selected triangles.

    ``coeff`` is a positive scalar, a symmetric positive-definite 2x2 array,
    or a dict mapping subdomain label -> scalar/tensor (in which case only
    the mapped subdomains contribute unless ``subdomains`` narrows further).
    """
    if isinstance(coeff, dict):
        total = None
        wanted = set(coeff) if subdomains is None else (
            {subdomains} if np.isscalar(subdomains) else set(subdomains)
        )
        for label in sorted(wanted):
            part = assemble_stiffness(mesh, coeff[label], subdomains=label)
            total = part if total is None else total + part
        total.sort_indices()
        return total

    d = _coefficient_tensor(coeff)
    mask = _triangle_mask(mesh, subdomains)
    areas, grads = triangle_gradients(mesh)
    g = grads[mask]
    element = np.einsum("tia,ab,tjb->tij", g, d, g) * areas[mask][:, None, None]
    return _scatter(mesh, mask, element)


def assemble_mass(mesh: TriMesh, subdomains=None) -> sp.csr_matrix:
    """Consistent P1 mass matrix over the selected triangles."""
    mask = _triangle_mask(mesh, subdomains)
    element = mesh.areas[mask][:, None, None] * _MASS_ELEMENT[None]
    return _scatter(mesh, mask, element)


def assemble_corrector_rhs(mesh: TriMesh, direction: int, coeff=1.0,
                           subdomains=None) -> np.ndarray:
    """Load vector b_j = -sum_T area * coeff * (grad phi_j)_i, i=direction.

    This is the right-hand side of the periodic cell problem driven by the
    unit gradient e_i; ``direction`` is 1 or 2.  ``coeff`` is a positive
    scalar or a dict mapping subdomain label -> scalar, mirroring
    :func:`assemble_stiffness`.
    """
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    if isinstance(coeff, dict):
        total = np.zeros(mesh.n_vertices)
        wanted = set(coeff) if subdomains is None else (
            {subdomains} if np.isscalar(subdomains) else set(subdomains)
        )
        for label in sorted(wanted):
            total += assemble_corrector_rhs(mesh, direction, coeff[label],
                                            subdomains=label)
        return total
    if coeff <= 0.0:
        raise ValueError("coefficient must be positive")
    mask = _triangle_mask(mesh, subdomains)
    areas, grads = triangle_gradients(mesh)
    contrib = -coeff * areas[mask][:, None] * grads[mask][:, :, direction - 1]
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, mesh.triangles[mask].ravel(), contrib.ravel())
    return b


def integral_weights(mesh: TriMesh, subdomains=None) -> np.ndarray:
    """Nodal weights w_j = integral of phi_j over the selected triangles."""
    mask = _triangle_mask(mesh, subdomains)
    w = np.zeros(mesh.n_vertices)
    contrib = np.repeat(mesh.areas[mask] / 3.0, 3)
    np.add.at(w, mesh.triangles[mask].ravel(), contrib)
    return w


def _resolve_masters(pairs: dict[int, int]) -> dict[int, int]:
    out = {}
    for s, m in pairs.items():
        seen = {s}
        while m in pairs:
            m = pairs[m]
            if m in seen:
                raise ValueError("periodic slave->master map has a cycle")
            seen.add(m)
        out[s] = m
    return out


def apply_constraints(a: sp.spmatrix, b: np.ndarray, mesh: TriMesh,
                      dirichlet_tags=(), periodic: bool = False,
                      zero_mean: bool = False):
    """Reduce (a, b) by Dirichlet/periodic/zero-mean constraints.

    Homogeneous Dirichlet vertices (on boundary edges carrying one of
    ``dirichlet_tags``, given by name) are eliminated; periodic slave rows
    and columns are folded onto their masters; ``zero_mean`` borders the
    reduced system with the row of basis integrals and one Lagrange
    multiplier.  Returns (a_reduced, b_reduced, DofMap).
    """
    nv = mesh.n_vertices
    if a.shape != (nv, nv):
        raise ValueError("matrix size does not match the mesh")

    dirichlet = np.array([], dtype=np.int64)
    if dirichlet_tags:
        codes = []
        for name in dirichlet_tags:
            if name not in msh.BOUNDARY_CODES:
                raise ValueError(f"unknown boundary tag {name!r}")
            codes.append(msh.BOUNDARY_CODES[name])
        sel = np.isin(mesh.boundary_tags, codes)
        if not sel.any():
            raise ValueError(f"no boundary edges tagged {tuple(dirichlet_tags)}")
        dirichlet = np.unique(mesh.boundary_edges[sel])

    pairs = {}
    if periodic:
        if not mesh.periodic_pairs:
            raise ValueError("mesh has no periodic pairing")
        pairs = _resolve_masters(mesh.periodic_pairs)
        overlap = set(pairs) & set(dirichlet.tolist())
        if overlap:
            raise ValueError(f"vertices both Dirichlet and periodic slaves: {sorted(overlap)}")

    slaves = np.fromiter(pairs.keys(), dtype=np.int64, count=len(pairs))
    rep = np.arange(nv, dtype=np.int64)
    for s, m in pairs.items():
        rep[s] = m

    is_dirichlet = np.zeros(nv, dtype=bool)
    is_dirichlet[dirichlet] = True
    bad = [s for s, m in pairs.items() if is_dirichlet[m]]
    if bad:
        raise ValueError(f"slave vertices {sorted(bad)} have Dirichlet masters")

    keep = ~is_dirichlet & (rep == np.arange(nv))
    dof_of = -np.ones(nv, dtype=np.int64)
    dof_of[keep] = np.arange(int(keep.sum()))
    vertex_to_dof = np.where(is_dirichlet, -1, dof_of[rep])
    n_dofs = int(keep.sum())

    rows = np.nonzero(vertex_to_dof >= 0)[0]
    proj = sp.coo_matrix(
        (np.ones(rows.size), (rows, vertex_to_dof[rows])), shape=(nv, n_dofs)
    ).tocsr()
    a_red = (proj.T @ a @ proj).tocsr()
    b_red = proj.T @ np.asarray(b, dtype=float)

    multiplier_index = None
    scale = 1.0
    if zero_mean:
        c = proj.T @ integral_weights(mesh)
        scale = float(np.linalg.norm(c))
        if scale == 0.0:
            raise ValueError("zero-mean row vanishes; mesh has no measure")
        # unit border column keeps the saddle system well scaled; the
        # multiplier is rescaled back on readout (A x + (c/s)(s mu) = b)
        c = c / scale
        a_red = sp.bmat(
            [[a_red, c[:, None]], [c[None, :], None]], format="csr"
        )
        b_red = np.concatenate([b_red, [0.0]])
        multiplier_index = n_dofs

    a_red.sort_indices()
    dofmap = DofMap(
        vertex_to_dof=vertex_to_dof,
        dirichlet_vertices=dirichlet,
        slave_vertices=np.sort(slaves),
        n_dofs=n_dofs,
        multiplier_index=multiplier_index,
        multiplier_scale=scale,
    )
    return a_red, b_red, dofmap


"""P1 finite element assembly on triangle meshes.

Stiffness, mass, and corrector right-hand sides are assembled over every
triangle of the mesh they are given (callers pass the Y1 or Y2 submesh)
with exact per-element integration from the mesh's own ``areas`` and
constant ``gradients`` (the mass element is the standard area/12 matrix).
Element matrices are summed onto the mesh's cached ``p1_pattern`` by one
bincount, so K and M on one mesh share a pattern built once from the edge
incidence, which a submesh inherits from its parent; nodal loads are
gathered per vertex by ``nodal_sum``.  Constraint application folds
periodic slaves onto their masters, eliminates homogeneous Dirichlet
rows/columns and, given a vertex involution, restricts the system to the
fields that are odd under it; it returns a DofMap, the one projection P
that reduces matrices (P'AP), loads (P'f) and expands solutions (Px).  A
pure-Neumann problem folded only periodically keeps its constant
nullspace here, and the odd fold removes it (a constant is even);
``cell.solve_correctors`` picks the fold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh

_MASS_ELEMENT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class DofMap:
    """The constraint map of apply_constraints, the sparse (n_vertices x
    n_dofs) projection ``proj``: 1 at the dof of a retained vertex or of a
    periodic slave's master, -1 at an odd image's, an empty row for an
    eliminated vertex.  ``expand`` is proj x and ``reduce``, its transpose,
    proj' f, which folds loads as apply_constraints folds matrices."""

    proj: sp.csr_matrix

    @property
    def n_dofs(self) -> int:
        return self.proj.shape[1]

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Nodal values on all mesh vertices (zeros on eliminated vertices)."""
        return self.proj @ x

    def reduce(self, full: np.ndarray) -> np.ndarray:
        """Load vector folded onto the system, the transpose of ``expand``."""
        return self.proj.T @ full


def _coefficient_tensor(coeff) -> np.ndarray:
    """Validate and return the 2x2 SPD diffusion tensor for a scalar/matrix."""
    d = np.asarray(coeff, dtype=float)
    if d.ndim == 0:
        if not 0.0 < d < np.inf:  # also catches NaN
            raise ValueError(
                f"scalar coefficient must be positive and finite, got {coeff}")
        return float(d) * np.eye(2)
    if d.shape != (2, 2):
        raise ValueError(f"tensor coefficient must be 2x2, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError(f"tensor coefficient must be finite, got {d.tolist()}")
    if np.abs(d - d.T).max() > 1e-12 * max(1.0, np.abs(d).max()):
        raise ValueError("tensor coefficient must be symmetric")
    if np.linalg.eigvalsh(d).min() <= 0.0:
        raise ValueError("tensor coefficient must be positive definite")
    return d


def _scatter(mesh: TriMesh, element: np.ndarray) -> sp.csr_matrix:
    """The (nt, 3, 3) element matrices summed onto the mesh's P1 pattern."""
    indptr, indices, slots = mesh.p1_pattern
    return sp.csr_matrix((np.bincount(slots, weights=element.ravel()), indices, indptr),
                         shape=(mesh.n_vertices, mesh.n_vertices))


def assemble_stiffness(mesh: TriMesh, coeff) -> sp.csr_matrix:
    """Stiffness matrix for -div(coeff grad u) over every triangle.

    ``coeff`` is a positive scalar or a symmetric positive-definite 2x2
    array.
    """
    d = _coefficient_tensor(coeff)
    grads = mesh.gradients
    element = ((grads @ d) @ grads.transpose(0, 2, 1)) * mesh.areas[:, None, None]
    return _scatter(mesh, element)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix over every triangle."""
    return _scatter(mesh, mesh.areas[:, None, None] * _MASS_ELEMENT[None])


def assemble_corrector_rhs(mesh: TriMesh, direction: int,
                           coeff: float = 1.0) -> np.ndarray:
    """Load vector b_j = -sum_T area * coeff * (grad phi_j)_i, i=direction.

    This is the right-hand side of the periodic cell problem driven by the
    unit gradient e_i; ``direction`` is 1 or 2 and ``coeff`` is a positive
    scalar.
    """
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    if coeff <= 0.0:
        raise ValueError("coefficient must be positive")
    contrib = -coeff * mesh.areas[:, None] * mesh.gradients[:, :, direction - 1]
    return nodal_sum(mesh, contrib)


def integral_weights(mesh: TriMesh) -> np.ndarray:
    """Nodal weights w_j = integral of phi_j over the mesh."""
    return nodal_sum(mesh, np.repeat(mesh.areas / 3.0, 3))


def nodal_sum(mesh: TriMesh, contrib: np.ndarray) -> np.ndarray:
    """Per vertex, the sum of the per-corner ``contrib`` ((nt, 3), or flat
    in that order) of the triangles at it, added in input order; a
    DofMap's ``reduce`` folds the result onto a constrained system."""
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_vertices)


def apply_constraints(mesh: TriMesh, *matrices: sp.spmatrix, dirichlet_tags=(),
                      periodic_pairs=None, odd_image=None):
    """Reduce each of ``matrices`` by one set of Dirichlet/periodic
    constraints.

    Homogeneous Dirichlet vertices (on boundary edges carrying one of the
    tag codes ``dirichlet_tags``, such as ``mesh.OUTER``) are eliminated;
    the slave row and column of every (slave, master) row of
    ``periodic_pairs`` (as ``mesh.periodic_pairs`` returns them; None folds
    nothing) are folded onto the master.  A master that is itself a slave,
    or a pair that touches a Dirichlet vertex, is a ValueError.
    ``odd_image``, a vertex involution that maps periodic classes onto
    classes and Dirichlet vertices onto Dirichlet vertices, further
    restricts the system to fields u with u[odd_image] = -u: of two classes
    it swaps, the one with the lower master keeps the dof and the other
    folds onto it with sign -1, and a class it fixes is eliminated.
    Returns the reduced matrices in order, then the DofMap of the projection
    that reduced them.
    """
    nv = mesh.n_vertices
    if any(a.shape != (nv, nv) for a in matrices):
        raise ValueError("matrix size does not match the mesh")

    dirichlet = mesh.tagged_vertices(dirichlet_tags)
    if dirichlet_tags and dirichlet.size == 0:
        raise ValueError(f"no boundary edges tagged {tuple(dirichlet_tags)}")

    pairs = np.asarray(() if periodic_pairs is None else periodic_pairs,
                       dtype=np.int64).reshape(-1, 2)
    slaves, masters = pairs.T
    chained = np.isin(masters, slaves)
    if chained.any():
        raise ValueError(f"periodic masters {np.unique(masters[chained]).tolist()} "
                         "are slaves themselves")
    is_dirichlet = np.zeros(nv, dtype=bool)
    is_dirichlet[dirichlet] = True
    touched = is_dirichlet[pairs].any(axis=1)
    if touched.any():
        raise ValueError(f"periodic pairs {pairs[touched].tolist()} touch "
                         "Dirichlet vertices")
    rep = np.arange(nv, dtype=np.int64)
    rep[slaves] = masters
    sign = np.where(is_dirichlet, 0.0, 1.0)

    if odd_image is not None:
        image = np.asarray(odd_image, dtype=np.int64)
        if image.shape != (nv,) or not np.array_equal(image[image], np.arange(nv)):
            raise ValueError("odd image is not an involution of the vertices")
        partner = rep[image]  # the master of each vertex's image
        if not np.array_equal(partner, partner[rep]):
            raise ValueError("odd image does not map periodic classes onto classes")
        if not np.array_equal(is_dirichlet[image], is_dirichlet):
            raise ValueError("odd image does not map Dirichlet vertices onto "
                             "Dirichlet vertices")
        sign[partner == rep] = 0.0
        sign[partner < rep] *= -1.0
        rep = np.minimum(rep, partner)

    keep = (sign != 0.0) & (rep == np.arange(nv))
    dof_of = np.cumsum(keep) - 1
    rows = np.flatnonzero(sign)
    proj = sp.csr_matrix((sign[rows], (rows, dof_of[rep[rows]])),
                         shape=(nv, int(keep.sum())))
    reduced = [(proj.T @ a @ proj).tocsr() for a in matrices]
    for a in reduced:
        a.sort_indices()
    return (*reduced, DofMap(proj))

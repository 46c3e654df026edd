"""Periodic cell correctors and the effective diffusion tensor.

The corrector theta_i solves the pure-diffusion problem on the matrix part
Y1 of the cell, driven by the unit gradient e_i, with periodic conditions
on the cell frame, a natural (zero-flux) condition on the inclusion
boundary, and zero mean.  For the centred inclusion each corrector is odd
under the half-turn x -> (1, 1) - x, so on a mesh whose Y1 system maps to
itself under it the problem is solved on the odd fields alone (about half
the dofs, no constant to fix); on any other mesh one dof is pinned.  Either
way the compatibility multiplier is in closed form and the mean is
subtracted.  The effective tensor averages the corrected gradients over Y1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem, mesh as msh, solvers
from .mesh import CellGeometry, TriMesh

# relative residual every corrector solve must meet
_SOLVER_TOL = 1e-10
# relative defect up to which the Y1 stiffness counts as invariant, and the
# corrector loads as odd, under the half-turn
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CorrectorComponent:
    """One corrector field theta_i on the Y1 submesh."""

    direction: int
    theta: np.ndarray
    multiplier: float
    residual: float


@dataclass(frozen=True)
class CorrectorSolution:
    """Both corrector fields on a shared Y1 submesh."""

    mesh: TriMesh
    components: tuple[CorrectorComponent, CorrectorComponent]

    @property
    def theta(self) -> np.ndarray:
        """(n_vertices, 2) array with theta_1 and theta_2 as columns."""
        return np.column_stack([c.theta for c in self.components])


@dataclass(frozen=True)
class EffectiveTensor:
    """Symmetrized effective diffusion tensor with diagnostics."""

    tensor: np.ndarray
    asymmetry: float
    y1_measure: float

    def __post_init__(self):
        d = self.tensor
        if d.shape != (2, 2) or np.abs(d - d.T).max() > 1e-12 * np.abs(d).max():
            raise ValueError("effective tensor must be symmetric 2x2")
        if np.linalg.eigvalsh(d).min() <= 0.0:
            raise ValueError("effective tensor must be positive definite")


def _half_turn_image(y1: TriMesh, stiffness: sp.csr_matrix,
                     loads: list[np.ndarray]) -> np.ndarray | None:
    """The vertex map v -> (1, 1) - v when the Y1 problem is odd under it.

    ``loads`` are the periodic-reduced loads spread back onto the vertices,
    so that a load whose periodic sum cancels to round-off (no inclusion)
    counts as not odd.  Both point sets are sorted on coordinates rounded to
    the pairing tolerance and matched in order, and the match is then
    verified.  Returns None, so the caller pins a dof instead, when some
    image is not a vertex, the stiffness is not invariant under the map or
    a load is not odd.
    """
    points = y1.vertices
    mirrored = 1.0 - points
    quantum = msh.PAIRING_TOL
    order, mirrored_order = (np.lexsort(np.rint(p / quantum).T[::-1])
                             for p in (points, mirrored))
    image = np.empty(y1.n_vertices, dtype=np.int64)
    image[mirrored_order] = order
    if np.abs(points[image] - mirrored).max(initial=0.0) > quantum:
        return None
    swapped = stiffness[image][:, image]
    if abs(swapped - stiffness).max() > _SYMMETRY_TOL * abs(stiffness).max():
        return None
    for load in loads:
        if np.abs(load + load[image]).max() > _SYMMETRY_TOL * np.abs(load).max():
            return None
    return image


def solve_correctors(cell: TriMesh, geom: CellGeometry) -> CorrectorSolution:
    """Solve the periodic cell problem for both unit-gradient directions.

    ``cell`` is the full Y1/Y2-labeled cell mesh or an already-restricted
    Y1 mesh; its frame must pair (``mesh.periodic_pairs``, whose
    PeriodicityError propagates).  A x + c mu = b, c'x = 0 (A, b, c the
    periodic-reduced stiffness, load and basis integrals) has
    mu = sum(b) / sum(c), as 1'A = 0; b - mu c is then in the range of A.
    When A is invariant and both loads are odd under the half-turn, the
    system is restricted to the odd fields, where A is SPD; otherwise dof 0
    is held at 0 and the SPD rest is kept.  One factor serves both
    directions, and the mean (c'x) / sum(c) is subtracted.  Each solution is
    checked once, against the unrestricted A x + c mu = b; each component
    holds theta on the Y1 submesh, mu, and that relative residual.
    """
    y1, _ = msh.submesh(cell, msh.Y1)
    pairs = msh.periodic_pairs(y1)
    stiffness = fem.assemble_stiffness(y1, geom.d1)
    weights = fem.integral_weights(y1)
    loads = [fem.assemble_corrector_rhs(y1, direction, coeff=geom.d1)
             for direction in (1, 2)]
    (periodic,) = fem.apply_constraints(y1, periodic_pairs=pairs)
    image = _half_turn_image(y1, stiffness,
                             [periodic.expand(periodic.reduce(f)) for f in loads])
    a_red, dofmap = fem.apply_constraints(y1, stiffness, periodic_pairs=pairs,
                                          odd_image=image)
    pin = int(image is None)  # the odd fields hold no constant to pin
    solve = solvers.factor_transpose(a_red[pin:, pin:])
    c = periodic.reduce(weights)
    c_red = dofmap.reduce(weights)
    components = []
    for direction, load in zip((1, 2), loads):
        b = periodic.reduce(load)
        mu = b.sum() / c.sum()
        x = np.zeros(dofmap.n_dofs)
        x[pin:] = solve((dofmap.reduce(load) - mu * c_red)[pin:])
        theta = dofmap.expand(x)
        theta -= (weights @ theta) / weights.sum()
        ax = periodic.reduce(stiffness @ theta) + mu * c
        components.append(CorrectorComponent(
            direction=direction,
            theta=theta,
            multiplier=float(mu),
            residual=solvers.check_residual(b, ax, _SOLVER_TOL),
        ))
    return CorrectorSolution(mesh=y1, components=tuple(components))


def effective_tensor(correctors: CorrectorSolution, geom: CellGeometry) -> EffectiveTensor:
    """Average corrected gradients over Y1 and symmetrize.

    D_ij = |Y1|^-1 sum_T area * d1 * (delta_ij + (grad theta_i)_j) with the
    discrete mesh measure |Y1|; the returned tensor is (D + D^T)/2 and the
    raw asymmetry max|D - D^T| is kept as a diagnostic.
    """
    mesh = correctors.mesh
    areas, grads = mesh.areas, mesh.gradients
    measure = float(areas.sum())
    d = np.zeros((2, 2))
    for comp in correctors.components:
        i = comp.direction - 1
        grad_theta = np.einsum("tk,tkj->tj", comp.theta[mesh.triangles], grads)
        d[i] = geom.d1 * (areas @ (np.eye(2)[i][None, :] + grad_theta)) / measure
    asym = float(np.abs(d - d.T).max())
    return EffectiveTensor(tensor=0.5 * (d + d.T), asymmetry=asym, y1_measure=measure)

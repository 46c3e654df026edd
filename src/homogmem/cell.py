"""Periodic cell correctors and the effective diffusion tensor.

The corrector theta_i solves the pure-diffusion problem on the matrix part
Y1 of the cell, driven by the unit gradient e_i, with periodic conditions
on the cell frame, a natural (zero-flux) condition on the inclusion
boundary, and zero mean (one dof pinned, mean subtracted, compatibility
multiplier in closed form).  The effective tensor averages the corrected
gradients over Y1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, mesh as msh, solvers
from .mesh import CellGeometry, TriMesh

# relative residual every corrector solve must meet
_SOLVER_TOL = 1e-10


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


def _y1_submesh(cell: TriMesh) -> TriMesh:
    if (cell.subdomain == msh.Y1).all():
        sub = cell
    else:
        sub, _ = msh.submesh(cell, msh.Y1)
    if not sub.periodic_pairs.size:
        raise ValueError("cell mesh lacks periodic pairing; call periodic_pairs first")
    return sub


def solve_correctors(cell: TriMesh, geom: CellGeometry) -> CorrectorSolution:
    """Solve the periodic cell problem for both unit-gradient directions.

    ``cell`` is the full cell mesh (Y1/Y2 labeled, periodic pairs filled) or
    an already-restricted Y1 mesh.  A x + c mu = b, c'x = 0 (c the basis
    integrals) has mu = sum(b) / sum(c), as 1'A = 0; b - mu c is then in the
    range of A, so dof 0 is held at 0, the SPD block A[1:, 1:] is factorised
    once for both directions, and the mean (c'x) / sum(c) is subtracted.
    Each component holds theta on the Y1 submesh, mu, and the relative
    residual of A x + c mu = b.
    """
    y1 = _y1_submesh(cell)
    a_red, dofmap = fem.apply_constraints(y1, fem.assemble_stiffness(y1, geom.d1))
    c = dofmap.reduce(fem.integral_weights(y1))
    solve = solvers.factorize(a_red[1:, 1:], _SOLVER_TOL)
    components = []
    for direction in (1, 2):
        b = dofmap.reduce(fem.assemble_corrector_rhs(y1, direction, coeff=geom.d1))
        mu = b.sum() / c.sum()
        x = np.concatenate([[0.0], solve((b - mu * c)[1:])])
        x -= (c @ x) / c.sum()
        resid = float(
            np.linalg.norm(b - a_red @ x - mu * c) / max(np.linalg.norm(b), 1e-300)
        )
        components.append(CorrectorComponent(
            direction=direction,
            theta=dofmap.expand(x),
            multiplier=float(mu),
            residual=resid,
        ))
    return CorrectorSolution(mesh=y1, components=tuple(components))


def effective_tensor(correctors: CorrectorSolution, geom: CellGeometry) -> EffectiveTensor:
    """Average corrected gradients over Y1 and symmetrize.

    D_ij = |Y1|^-1 sum_T area * d1 * (delta_ij + (grad theta_i)_j) with the
    discrete mesh measure |Y1|; the returned tensor is (D + D^T)/2 and the
    raw asymmetry max|D - D^T| is kept as a diagnostic.
    """
    mesh = correctors.mesh
    areas, grads = fem.triangle_gradients(mesh)
    measure = float(areas.sum())
    d = np.zeros((2, 2))
    for comp in correctors.components:
        i = comp.direction - 1
        grad_theta = np.einsum("tk,tkj->tj", comp.theta[mesh.triangles], grads)
        d[i] = geom.d1 * (areas @ (np.eye(2)[i][None, :] + grad_theta)) / measure
    asym = float(np.abs(d - d.T).max())
    return EffectiveTensor(tensor=0.5 * (d + d.T), asymmetry=asym, y1_measure=measure)

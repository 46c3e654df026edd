"""Macroscale time stepping for homogenized diffusion with memory.

The nonlocal-in-time model is replaced by an extended local system: one
auxiliary field w_k per kernel term evolves alongside the solution y, and
the w_k are eliminated from the weighted two-level (sigma) scheme so that
every step solves a single SPD system

    [(1 + r + sigma*tau*alpha) M + sigma*tau*K] y^{n+1} = rhs(y^n, w^n),

with alpha = sum_k a_k / (1 + sigma*lambda_k*tau).  That matrix is
factorised once per run.  One step costs:

- the right-hand side: one product with M and one (K x N) block-vector
  product for the memory term (at sigma < 1 it also reads the carried K y);
- the factorised solve, a triangular solve pair, and its residual check,
  one product with the step matrix;
- the increment: one product M dy, K + 1 dot products with it, and the
  auxiliary fields advanced in place by a row scaling and one BLAS rank-1
  update of the (K x N) block;
- the new level's K y, one product with K.

The discrete energy y'Ky + sum_k a_k w_k' M w_k is non-increasing for
sigma >= 1/2.  The quadratics q_k = w_k' M w_k and the vectors M y and
K y are carried on the state, so the energy and the L2 norm cost one dot
product each, and K y, which the energy and the next sigma < 1 right-hand
side both read, is computed once per level.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.blas import dger

from . import fem, solvers
from .errors import ConvergenceError
from .kernel import KernelApproximation
from .mesh import TriMesh

# relative residual every macro linear solve must meet
_SOLVER_TOL = 1e-12


def check_time_grid(tau: float, t_end: float, sigma: float, snapshot_times=()) -> None:
    """Reject a step ``tau`` that is not positive and finite or does not
    divide a finite ``t_end >= 0`` into whole steps, a ``sigma`` outside
    [0, 1] and a snapshot time outside [0, t_end]."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"macro.tau must be positive and finite, got {tau}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"macro.t_end must be finite and >= 0, got {t_end}")
    levels = t_end / tau
    if not math.isfinite(levels) or abs(levels - round(levels)) > 1e-9 * levels:
        raise ValueError(f"macro.t_end={t_end} is not a whole number of steps "
                         f"of macro.tau={tau}")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"macro.sigma must lie in [0, 1], got {sigma}")
    for t in snapshot_times:
        if not (math.isfinite(t / tau) and 0 <= round(t / tau) <= round(levels)):
            raise ValueError(f"macro.snapshot_times entry {t} lies outside "
                             f"[0, macro.t_end={t_end}]")


@dataclass(frozen=True)
class MacroProblem:
    """Initial-boundary-value problem on the macro mesh.

    ``u0(x1, x2)`` is a vectorized initial condition; homogeneous Dirichlet
    data is imposed on boundary edges tagged "outer".  ``sigma`` weights the
    two time levels: 1 is implicit Euler, 1/2 is the symmetric scheme, and
    values below 1/2 are only conditionally stable.
    """

    mesh: TriMesh
    tensor: np.ndarray
    kernel: KernelApproximation
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tau: float
    t_end: float
    sigma: float = 1.0

    def __post_init__(self):
        check_time_grid(self.tau, self.t_end, self.sigma)

    @property
    def conditionally_stable(self) -> bool:
        return self.sigma < 0.5

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.tau))


class _StepOperator:
    """Matrices, the step matrix's factor and the scalar coefficients
    shared by every step."""

    def __init__(self, problem: MacroProblem):
        mesh = problem.mesh
        ker = problem.kernel
        stiff = fem.assemble_stiffness(mesh, problem.tensor)
        mass = fem.assemble_mass(mesh)
        self.stiffness, self.mass, self.dofmap = fem.apply_constraints(
            mesh, stiff, mass, dirichlet_tags=("outer",)
        )
        sig, tau = problem.sigma, problem.tau
        self.amplitudes = ker.amplitudes
        self.gains = ker.amplitudes / (1.0 + sig * tau * ker.rates)
        alpha = float(self.gains.sum())
        self.mass_weight = 1.0 + ker.remainder + sig * tau * alpha
        step_matrix = self.mass_weight * self.mass + sig * tau * self.stiffness
        self.solve_step = solvers.factorize(step_matrix, _SOLVER_TOL)
        self.w_decay = (1.0 - (1.0 - sig) * tau * ker.rates) / (
            1.0 + sig * tau * ker.rates
        )
        self.w_gain = 1.0 / (1.0 + sig * tau * ker.rates)


@dataclass
class MacroState:
    """Time level n: solution dofs y, auxiliary fields w_k (rows of w),
    their mass quadratics q_k = w_k' M w_k and the products m_y = M y and
    k_y = K y."""

    y: np.ndarray
    w: np.ndarray
    q: np.ndarray
    m_y: np.ndarray
    k_y: np.ndarray
    n: int
    ops: _StepOperator = field(repr=False)


def _project_initial(problem: MacroProblem, ops: _StepOperator) -> np.ndarray:
    """L2 projection of u0 via the mass system and a 3-midpoint edge rule."""
    mesh = problem.mesh
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # midpoints of edges 01, 12, 20
    vals = problem.u0(mids[:, :, 0], mids[:, :, 1])
    # phi_v is 1/2 on the two midpoints of edges touching v, 0 opposite
    contrib = np.empty((mesh.n_triangles, 3))
    contrib[:, 0] = vals[:, 0] + vals[:, 2]
    contrib[:, 1] = vals[:, 0] + vals[:, 1]
    contrib[:, 2] = vals[:, 1] + vals[:, 2]
    contrib *= (mesh.areas / 6.0)[:, None]
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return solvers.solve_spd(ops.mass, ops.dofmap.reduce(b), tol=_SOLVER_TOL)


def init_state(problem: MacroProblem) -> MacroState:
    """Project the initial condition and zero the auxiliary fields."""
    if problem.conditionally_stable:
        warnings.warn(
            f"sigma={problem.sigma} < 1/2 is only conditionally stable",
            stacklevel=2,
        )
    ops = _StepOperator(problem)
    y0 = _project_initial(problem, ops)
    n_terms = problem.kernel.amplitudes.size
    w0 = np.zeros((n_terms, ops.dofmap.n_dofs))
    return MacroState(y=y0, w=w0, q=np.zeros(n_terms), m_y=ops.mass @ y0,
                      k_y=ops.stiffness @ y0, n=0, ops=ops)


def step(state: MacroState, problem: MacroProblem) -> MacroState:
    """Advance one time level of the eliminated extended system.

    The auxiliary block is advanced in place: the returned level takes over
    ``state.w`` (the same array when it is C-contiguous), so ``state`` must
    not be read after the call.
    """
    ops = state.ops
    sig, tau = problem.sigma, problem.tau
    rhs = ops.mass @ (ops.mass_weight * state.y - tau * (ops.gains @ state.w))
    if sig < 1.0:
        rhs -= (1.0 - sig) * tau * state.k_y
    y_next = ops.solve_step(rhs)
    # w_k <- d_k w_k + g_k dy, so q_k <- d_k^2 q_k + 2 d_k g_k w_k'M dy
    # + g_k^2 dy'M dy
    d, g = ops.w_decay, ops.w_gain
    dy = y_next - state.y
    m_dy = ops.mass @ dy
    q_next = d * d * state.q + 2.0 * d * g * (state.w @ m_dy) + g * g * (dy @ m_dy)
    w = state.w
    w *= d[:, None]
    if w.size:
        # dger updates a Fortran-ordered (N, K) matrix in place; it copies a
        # non-contiguous one, so the result is whatever it returns
        w = dger(1.0, dy, g, a=w.T, overwrite_a=True).T
    return MacroState(y=y_next, w=w, q=q_next, m_y=state.m_y + m_dy,
                      k_y=ops.stiffness @ y_next, n=state.n + 1, ops=ops)


def energy(state: MacroState) -> float:
    """Discrete energy y'Ky + sum_k a_k w_k' M w_k at the current level."""
    return float(state.y @ state.k_y + state.ops.amplitudes @ state.q)


def l2_norm(state: MacroState) -> float:
    """Discrete L2 norm sqrt(y'My) at the current level."""
    return float(np.sqrt(state.y @ state.m_y))


@dataclass(frozen=True)
class RunResult:
    """Trajectory summaries from run(): series are indexed by time level."""

    times: np.ndarray
    energies: np.ndarray
    l2_norms: np.ndarray
    snapshots: tuple[tuple[float, np.ndarray], ...]
    final: MacroState

    @property
    def initial_energy(self) -> float:
        return float(self.energies[0])

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])


def run(problem: MacroProblem, snapshot_times=()) -> RunResult:
    """March from t=0 to t_end recording energy and L2 norm every level.

    ``snapshot_times`` are rounded to the nearest time level; snapshots are
    full nodal vectors (zeros on the Dirichlet boundary).  Raises
    ConvergenceError at the first level whose energy is not finite.
    """
    check_time_grid(problem.tau, problem.t_end, problem.sigma, snapshot_times)
    n_steps = problem.n_steps
    state = init_state(problem)
    snap_levels = {}
    for t_req in snapshot_times:
        snap_levels.setdefault(int(round(t_req / problem.tau)), t_req)

    energies = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    energies[0] = energy(state)
    norms[0] = l2_norm(state)
    snapshots = []
    if 0 in snap_levels:
        snapshots.append((0.0, state.ops.dofmap.expand(state.y)))
    # a blow-up overflows on its way to a non-finite energy; the check below
    # reports it as an error, so numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            state = step(state, problem)
            energies[n] = energy(state)
            if not np.isfinite(energies[n]):
                raise ConvergenceError(
                    f"energy is not finite at step {n} (t={n * problem.tau:g}); "
                    "the scheme blew up"
                )
            norms[n] = l2_norm(state)
            if n in snap_levels:
                snapshots.append((n * problem.tau, state.ops.dofmap.expand(state.y)))
    return RunResult(
        times=np.arange(n_steps + 1) * problem.tau,
        energies=energies,
        l2_norms=norms,
        snapshots=tuple(snapshots),
        final=state,
    )

"""Macroscale time stepping for homogenized diffusion with memory.

The nonlocal-in-time model is replaced by an extended local system: one
auxiliary field w_k per kernel term evolves alongside the solution y, and
the w_k are eliminated from the weighted two-level (sigma) scheme so that
every step solves a single SPD system

    [(1 + r + sigma*tau*alpha) M + sigma*tau*K] y^{n+1} = rhs(y^n, w^n),

with alpha = sum_k a_k / (1 + sigma*lambda_k*tau).  That matrix is
factorised once per run.  The auxiliary fields are carried in Galerkin
form, M w_k = s_k v_k: the rows v_k of a (K x N) block and one integrating
factor s_k per term, so their decay is a K-vector product.  One step costs:

- the right-hand side from the carried M y and K y and one (K x N)
  block-vector product, sum_k a_k s_k v_k / (1 + sigma*lambda_k*tau);
- the factorised solve, a triangular solve pair;
- the new level's M y and K y, one product with M and one with K; they
  check the solve's residual, and M dy is their difference from the
  previous level's products;
- the increment: one (K x N) block-vector product v @ dy for the
  quadratics, and one BLAS rank-1 update of the block with M dy.

The discrete energy y'Ky + sum_k a_k w_k' M w_k is non-increasing for
sigma >= 1/2.  The quadratics q_k = w_k' M w_k and the vectors M y and
K y are carried on the state, so the energy and the L2 norm cost one dot
product each.
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
from .mesh import OUTER, TriMesh

# relative residual every macro linear solve must meet
_SOLVER_TOL = 1e-12
# range of the integrating factors s_k; a factor that leaves it is folded
# into its row of the auxiliary block, far from under- and overflow
_FACTOR_RANGE = (1e-30, 1e30)
# steps a run may take: a time level's three float64 series and its share of
# writing energy.csv peak at 61 bytes (tracemalloc, 1e5 levels), so 1e6 take 60 MB
_MAX_STEPS = 10**6


def check_time_grid(tau: float, t_end: float, sigma: float, snapshot_times=()) -> None:
    """Reject a step ``tau`` that is not positive and finite or does not
    divide a finite ``t_end >= 0`` into at most _MAX_STEPS whole steps, a
    ``sigma`` outside [0, 1] and a snapshot time outside [0, t_end]."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"macro.tau must be positive and finite, got {tau}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"macro.t_end must be finite and >= 0, got {t_end}")
    levels = t_end / tau
    if not math.isfinite(levels) or abs(levels - round(levels)) > 1e-9 * levels:
        raise ValueError(f"macro.t_end={t_end} is not a whole number of steps "
                         f"of macro.tau={tau}")
    if round(levels) > _MAX_STEPS:
        raise ValueError(f"macro.t_end={t_end} takes {levels:.15g} steps of "
                         f"macro.tau={tau}, more than a run may take ({_MAX_STEPS})")
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
    data is imposed on boundary edges tagged OUTER.  ``sigma`` weights the
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
            mesh, stiff, mass, dirichlet_tags=(OUTER,)
        )
        sig, tau = problem.sigma, problem.tau
        self.amplitudes = ker.amplitudes
        self.gains = ker.amplitudes / (1.0 + sig * tau * ker.rates)
        alpha = float(self.gains.sum())
        self.mass_weight = 1.0 + ker.remainder + sig * tau * alpha
        # unchecked: step() checks each solve from the products it makes anyway
        self.solve_step = solvers.factor_transpose(
            self.mass_weight * self.mass + sig * tau * self.stiffness
        )
        self.w_decay = (1.0 - (1.0 - sig) * tau * ker.rates) / (
            1.0 + sig * tau * ker.rates
        )
        self.w_gain = 1.0 / (1.0 + sig * tau * ker.rates)


@dataclass
class MacroState:
    """Time level n: solution dofs y; the auxiliary fields in Galerkin form,
    M w_k = s_k w[k], as a (K x N) block w and integrating factors s; their
    mass quadratics q_k = w_k' M w_k; and the products m_y = M y and
    k_y = K y."""

    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    q: np.ndarray
    m_y: np.ndarray
    k_y: np.ndarray
    n: int
    ops: _StepOperator = field(repr=False)


def initial_load(mesh: TriMesh, u0) -> np.ndarray:
    """Load of the L2 projection of u0 by a 3-midpoint edge rule, reduced
    by the Dirichlet condition on OUTER; a ValueError where not finite.  A
    value not finite on a Dirichlet vertex only is harmless, and numpy's
    warnings would only repeat the error or warn of nothing, so they are off."""
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # midpoints of edges 01, 12, 20
    # phi_v is 1/2 on the midpoints of edges (v-1, v) and (v, v+1), 0 on the third
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = u0(mids[:, :, 0], mids[:, :, 1])
        contrib = (vals + np.roll(vals, 1, axis=1)) * (mesh.areas / 6.0)[:, None]
    (dofmap,) = fem.apply_constraints(mesh, dirichlet_tags=(OUTER,))
    load = dofmap.reduce(fem.nodal_sum(mesh, contrib))
    if not np.isfinite(load).all():
        raise ValueError("macro.u0 is not finite inside the domain")
    return load


def init_state(problem: MacroProblem) -> MacroState:
    """L2-project u0 through the mass system and zero the auxiliary fields."""
    if problem.conditionally_stable:
        warnings.warn(
            f"sigma={problem.sigma} < 1/2 is only conditionally stable",
            stacklevel=2,
        )
    ops = _StepOperator(problem)
    load = initial_load(problem.mesh, problem.u0)
    y0 = solvers.solve_spd(ops.mass, load, tol=_SOLVER_TOL)
    n_terms = problem.kernel.amplitudes.size
    w0 = np.zeros((n_terms, ops.dofmap.n_dofs))
    return MacroState(y=y0, w=w0, s=np.ones(n_terms), q=np.zeros(n_terms),
                      m_y=ops.mass @ y0, k_y=ops.stiffness @ y0, n=0, ops=ops)


def step(state: MacroState, problem: MacroProblem) -> MacroState:
    """Advance one time level of the eliminated extended system.

    The auxiliary block is advanced in place: the returned level takes over
    ``state.w`` (the same array when it is C-contiguous), so ``state`` must
    not be read after the call.  The solve is checked by
    ``solvers.check_residual`` against the new level's M y and K y.
    """
    ops = state.ops
    sig, tau = problem.sigma, problem.tau
    d, g = ops.w_decay, ops.w_gain
    w, s = state.w, state.s
    rhs = ops.mass_weight * state.m_y - tau * ((ops.gains * s) @ w)
    if sig < 1.0:
        rhs -= (1.0 - sig) * tau * state.k_y
    y_next = ops.solve_step(rhs)
    m_y, k_y = ops.mass @ y_next, ops.stiffness @ y_next
    solvers.check_residual(rhs, ops.mass_weight * m_y + sig * tau * k_y, _SOLVER_TOL)
    # w_k <- d_k w_k + g_k dy, so q_k <- d_k^2 q_k + 2 d_k g_k (M w_k)'dy
    # + g_k^2 dy'M dy
    dy = y_next - state.y
    m_dy = m_y - state.m_y
    q_next = d * d * state.q + 2.0 * d * g * s * (w @ dy) + g * g * (dy @ m_dy)
    # M w_k decays through s_k alone; a factor that leaves its range (d_k = 0
    # included) is folded into its row before g_k / s_k is formed, so that
    # quotient is finite for any d_k
    s = d * s
    lo, hi = _FACTOR_RANGE
    for k in np.flatnonzero((np.abs(s) < lo) | (np.abs(s) > hi)):
        w[k] *= s[k]
        s[k] = 1.0
    if w.size:
        # dger updates a Fortran-ordered (N, K) matrix in place; it copies a
        # non-contiguous one, so the result is whatever it returns
        w = dger(1.0, m_dy, g / s, a=w.T, overwrite_a=True).T
    return MacroState(y=y_next, w=w, s=s, q=q_next, m_y=m_y, k_y=k_y,
                      n=state.n + 1, ops=ops)


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
    snapshots = []
    # a blow-up (or a u0 too large to square) overflows on its way to a
    # non-finite energy; the check below reports it as an error, so numpy's
    # overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps + 1):
            if n:
                state = step(state, problem)
            energies[n] = energy(state)
            if not np.isfinite(energies[n]):
                raise ConvergenceError(
                    f"energy is not finite at step {n} (t={n * problem.tau:g}); "
                    + ("the scheme blew up" if n else "u0 is too large")
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

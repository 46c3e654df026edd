"""Reference integrators the macro tests share: product integration of the
Volterra form over the whole history, the oracle that the extended local
scheme of ``homogmem.macro`` is checked against, and the scheme's own dof
trajectory, stepped level by level."""
import numpy as np

from homogmem import fem, macro, mesh as msh, solvers

# relative residual of every reference solve, as for the scheme's solves
_SOLVER_TOL = 1e-12


def volterra_reference(problem: macro.MacroProblem) -> np.ndarray:
    """Integrate the Volterra form directly as an independent reference.

    The memory term (chi * du/dt)(t) is integrated exactly over each past
    interval for the piecewise-constant increment representation of du/dt
    (product integration), and the equation is enforced at the same sigma
    weighting as the extended scheme.  K and M come from ``fem``, not from
    the scheme's step operator; both integrators start from the projected
    level of ``macro.init_state``.  The full increment history is kept.
    Returns the dof trajectory with shape (n_steps + 1, n_dofs).
    """
    mesh = problem.mesh
    stiffness, mass, _ = fem.apply_constraints(
        mesh, fem.assemble_stiffness(mesh, problem.tensor), fem.assemble_mass(mesh),
        dirichlet_tags=(msh.OUTER,),
    )
    sig, tau = problem.sigma, problem.tau
    a_k, lam, r = problem.kernel.amplitudes, problem.kernel.rates, problem.kernel.remainder

    y = macro.init_state(problem).y
    traj = np.empty((problem.n_steps + 1, y.size))
    traj[0] = y
    increments = np.empty((problem.n_steps, y.size))

    # integral of each exponential over one step; beta weights the unknown
    # increment, decay powers weight the stored history
    decay = np.exp(-lam * tau)
    unit_mass = (a_k / lam) * (1.0 - decay)
    beta = float(unit_mass.sum())
    lhs = (1.0 + r + sig * beta) * mass + sig * tau * stiffness
    solve_lhs = solvers.factor_transpose(lhs)

    for n in range(problem.n_steps):
        ages = np.arange(n - 1, -1, -1, dtype=float)  # n-1-j for j=0..n-1
        powers = np.exp(-np.multiply.outer(lam * tau, ages))
        w_at_n = unit_mass @ powers
        w_at_np1 = (unit_mass * decay) @ powers
        hist = (sig * w_at_np1 + (1.0 - sig) * w_at_n) @ increments[:n] / tau
        rhs = (1.0 + r + sig * beta) * (mass @ y)
        rhs -= (1.0 - sig) * tau * (stiffness @ y)
        rhs -= tau * (mass @ hist)
        y_next = solve_lhs(rhs)
        solvers.check_residual(rhs, lhs @ y_next, _SOLVER_TOL)
        increments[n] = y_next - y
        traj[n + 1] = y_next
        y = y_next
    return traj


def trajectory(problem: macro.MacroProblem) -> tuple[np.ndarray, macro.MacroState]:
    """The extended scheme's dof rows at every level, shape
    (n_steps + 1, n_dofs), and its last state, stepped with ``macro.step``
    from ``macro.init_state`` as ``macro.run`` steps them."""
    state = macro.init_state(problem)
    rows = [state.y.copy()]
    for _ in range(problem.n_steps):
        state = macro.step(state, problem)
        rows.append(state.y.copy())
    return np.asarray(rows), state

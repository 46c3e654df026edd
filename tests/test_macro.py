"""Macro time stepping: hand recurrences, block-system equivalence, energy."""
import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from homogmem import cli, fem, kernel as ker, macro, mesh as msh
from homogmem.errors import ConvergenceError
from volterra import trajectory, volterra_reference


def make_kernel(amps, rates, r=0.0, y2=0.25):
    amps = np.asarray(amps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    return ker.KernelApproximation(
        amplitudes=amps, rates=rates, remainder=r, remainder_raw=r,
        y2_measure=y2, raw_count=amps.size, kept_count=amps.size,
    )


def mode_u0(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def reduced_operators(mesh, tensor):
    """Dirichlet-reduced stiffness/mass assembled independently of macro."""
    stiff = fem.assemble_stiffness(mesh, tensor)
    mass = fem.assemble_mass(mesh)
    k_red, m_red, dofmap = fem.apply_constraints(
        mesh, stiff, mass, dirichlet_tags=(msh.OUTER,)
    )
    return k_red.toarray(), m_red.toarray(), dofmap


def aux_fields(state, m_arr):
    """The auxiliary fields w_k, one per row, from the state's Galerkin
    block M w_k = s_k w[k] and the dense mass matrix."""
    return np.linalg.solve(m_arr, (state.s[:, None] * state.w).T).T


def plain_levels(problem, k_arr, m_arr):
    """The scheme written out with dense matrices and the auxiliary fields
    themselves, w_k <- d_k w_k + g_k dy: (y, w) at levels 1..n_steps."""
    amps, lam = problem.kernel.amplitudes, problem.kernel.rates
    sig, tau = problem.sigma, problem.tau
    gain = amps / (1.0 + sig * tau * lam)
    weight = 1.0 + problem.kernel.remainder + sig * tau * gain.sum()
    decay = (1.0 - (1.0 - sig) * tau * lam) / (1.0 + sig * tau * lam)
    lhs = weight * m_arr + sig * tau * k_arr
    y = macro.init_state(problem).y
    w = np.zeros((amps.size, y.size))
    for _ in range(problem.n_steps):
        rhs = m_arr @ (weight * y - tau * (gain @ w)) - (1.0 - sig) * tau * (k_arr @ y)
        y_next = np.linalg.solve(lhs, rhs)
        w = decay[:, None] * w + (y_next - y) / (1.0 + sig * tau * lam)[:, None]
        y = y_next
        yield y, w


class TestStepAlgebra:
    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_single_dof_hand_recurrence(self, sigma):
        # a 2x2 grid leaves exactly one interior vertex, so the eliminated
        # scheme collapses to a scalar recurrence we can write out by hand
        mesh = msh.build_unit_square_mesh(2)
        kernel = make_kernel([2.0], [5.0], r=0.1)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=kernel, u0=mode_u0,
            tau=0.01, t_end=0.05, sigma=sigma,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, np.eye(2))
        assert k_arr.shape == (1, 1)
        k, m = k_arr[0, 0], m_arr[0, 0]

        state = macro.init_state(problem)
        y, w = float(state.y[0]), 0.0
        a, lam, r, tau = 2.0, 5.0, 0.1, 0.01
        gain = a / (1.0 + sigma * tau * lam)
        weight = 1.0 + r + sigma * tau * gain
        for _ in range(5):
            rhs = weight * m * y - (1.0 - sigma) * tau * k * y - tau * m * gain * w
            y_new = rhs / (weight * m + sigma * tau * k)
            w = ((1.0 - (1.0 - sigma) * tau * lam) * w + (y_new - y)) / (
                1.0 + sigma * tau * lam
            )
            y = y_new
            state = macro.step(state, problem)
        assert state.y[0] == pytest.approx(y, rel=1e-12)
        assert aux_fields(state, m_arr)[0, 0] == pytest.approx(w, rel=1e-12)
        assert macro.energy(state) == pytest.approx(
            k * y**2 + a * m * w**2, rel=1e-12
        )

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_matches_monolithic_block_system(self, sigma):
        # eliminating the auxiliary fields must reproduce the coupled
        # (y, w_1, w_2) system solved monolithically
        mesh = msh.build_unit_square_mesh(4)
        tensor = np.array([[1.2, 0.2], [0.2, 0.9]])
        amps, rates, r = np.array([30.0, 5.0]), np.array([50.0, 200.0]), 0.2
        tau = 1e-3
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor, kernel=make_kernel(amps, rates, r=r),
            u0=mode_u0, tau=tau, t_end=5 * tau, sigma=sigma,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, tensor)
        nd = k_arr.shape[0]
        eye = np.eye(nd)

        lhs = np.zeros((3 * nd, 3 * nd))
        lhs[:nd, :nd] = (1.0 + r) / tau * m_arr + sigma * k_arr
        for j, a in enumerate(amps):
            lhs[:nd, (1 + j) * nd:(2 + j) * nd] = sigma * a * m_arr
            rows = slice((1 + j) * nd, (2 + j) * nd)
            lhs[rows, rows] = (1.0 / tau + rates[j] * sigma) * eye
            lhs[rows, :nd] = -eye / tau

        state = macro.init_state(problem)
        y = state.y.copy()
        w = np.zeros((2, nd))
        for _ in range(5):
            rhs = np.zeros(3 * nd)
            rhs[:nd] = (1.0 + r) / tau * (m_arr @ y) - (1.0 - sigma) * (k_arr @ y)
            for j, a in enumerate(amps):
                rhs[:nd] -= (1.0 - sigma) * a * (m_arr @ w[j])
                rhs[(1 + j) * nd:(2 + j) * nd] = (
                    (1.0 / tau - rates[j] * (1.0 - sigma)) * w[j] - y / tau
                )
            z = np.linalg.solve(lhs, rhs)
            y, w = z[:nd], z[nd:].reshape(2, nd)
            state = macro.step(state, problem)
        scale = np.abs(state.y).max()
        assert np.abs(state.y - y).max() <= 1e-10 * scale
        assert np.abs(aux_fields(state, m_arr) - w).max() <= 1e-10 * scale

    def test_volterra_equals_extended_without_memory_terms(self):
        # with no exponential terms both integrators reduce to the same
        # weighted two-level recurrence and must agree to solver precision
        mesh = msh.build_unit_square_mesh(4)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=make_kernel([], [], r=0.3),
            u0=mode_u0, tau=1e-3, t_end=5e-3, sigma=0.5,
        )
        rows, _ = trajectory(problem)
        reference = volterra_reference(problem)
        assert rows.shape == reference.shape
        assert np.abs(rows - reference).max() <= 1e-12

    def test_non_contiguous_w_steps_like_a_contiguous_one(self):
        # the rank-1 update copies a block it cannot update in place; the
        # returned level must not depend on that
        mesh = msh.build_unit_square_mesh(6)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2),
            kernel=make_kernel([30.0, 5.0, 1.0], [50.0, 200.0, 900.0], r=0.1),
            u0=mode_u0, tau=1e-3, t_end=1e-2, sigma=0.5,
        )
        state = macro.init_state(problem)
        for _ in range(3):
            state = macro.step(state, problem)
        wide = np.zeros((state.w.shape[0], 2 * state.w.shape[1]))
        wide[:, ::2] = state.w
        strided = dataclasses.replace(state, w=wide[:, ::2])
        assert not strided.w.flags.c_contiguous and not strided.w.flags.f_contiguous
        contiguous = dataclasses.replace(state, w=state.w.copy())
        a = macro.step(contiguous, problem)
        b = macro.step(strided, problem)
        for got, want in ((b.y, a.y), (b.w, a.w), (b.s, a.s), (b.q, a.q)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_step_allocates_no_copy_of_the_auxiliary_block(self):
        mesh = msh.build_unit_square_mesh(40)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2),
            kernel=make_kernel(np.linspace(1.0, 20.0, 20), np.geomspace(1.0, 1e4, 20)),
            u0=mode_u0, tau=1e-3, t_end=1e-2,
        )
        state = macro.step(macro.init_state(problem), problem)
        block_bytes = state.w.nbytes
        tracemalloc.start()
        try:
            macro.step(state, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes


class TestEnergy:
    @pytest.mark.parametrize("sigma", [1.0, 0.75, 0.5])
    def test_energy_never_increases(self, sigma):
        mesh = msh.build_unit_square_mesh(8)
        kernel = make_kernel([30.0, 5.0, 1.0], [50.0, 200.0, 900.0], r=0.1)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=kernel, u0=mode_u0,
            tau=1e-3, t_end=0.03, sigma=sigma,
        )
        result = macro.run(problem)
        rises = np.diff(result.energies)
        assert rises.max() <= 1e-12 * result.initial_energy

    def test_energy_and_norm_formulas(self):
        mesh = msh.build_unit_square_mesh(3)
        kernel = make_kernel([2.0, 1.0], [5.0, 20.0], r=0.1)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=kernel, u0=mode_u0,
            tau=1e-2, t_end=3e-2,
        )
        state = macro.init_state(problem)
        state = macro.step(macro.step(state, problem), problem)
        k_arr, m_arr, _ = reduced_operators(mesh, np.eye(2))
        expected = state.y @ k_arr @ state.y + sum(
            a * (wk @ m_arr @ wk) for a, wk in zip([2.0, 1.0], aux_fields(state, m_arr))
        )
        assert macro.energy(state) == pytest.approx(expected, rel=1e-12)
        assert macro.l2_norm(state) == pytest.approx(
            np.sqrt(state.y @ m_arr @ state.y), rel=1e-12
        )


    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_carried_energy_matches_dense_formula(self, sigma):
        # the per-term quadratics are updated from each increment, not
        # recomputed; 200 steps (the energy falls ~400x) must stay on the
        # dense y'Ky + sum_k a_k w_k'Mw_k at every level
        mesh = msh.build_unit_square_mesh(8)
        tensor = np.array([[1.2, 0.2], [0.2, 0.9]])
        amps = np.array([30.0, 5.0, 1.0])
        kernel = make_kernel(amps, [50.0, 200.0, 900.0], r=0.1)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor, kernel=kernel, u0=cli._resolve_u0("paper"),
            tau=1e-3, t_end=0.2, sigma=sigma,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, tensor)
        state = macro.init_state(problem)
        for _ in range(problem.n_steps):
            state = macro.step(state, problem)
            dense = state.y @ k_arr @ state.y + sum(
                a * (wk @ m_arr @ wk) for a, wk in zip(amps, aux_fields(state, m_arr))
            )
            assert macro.energy(state) == pytest.approx(dense, rel=1e-12)
        assert state.n == 200

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_carried_mass_product_matches_dense_formula(self, sigma):
        # M y is carried on the state; after 200 steps it and the L2 norm
        # built on it stay on the dense products
        mesh = msh.build_unit_square_mesh(8)
        tensor = np.array([[1.2, 0.2], [0.2, 0.9]])
        kernel = make_kernel([30.0, 5.0, 1.0], [50.0, 200.0, 900.0], r=0.1)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor, kernel=kernel, u0=cli._resolve_u0("paper"),
            tau=1e-3, t_end=0.2, sigma=sigma,
        )
        _, m_arr, _ = reduced_operators(mesh, tensor)
        state = macro.init_state(problem)
        for _ in range(problem.n_steps):
            state = macro.step(state, problem)
        dense = m_arr @ state.y
        assert np.abs(state.m_y - dense).max() <= 1e-12 * np.abs(dense).max()
        assert macro.l2_norm(state) == pytest.approx(
            np.sqrt(state.y @ dense), rel=1e-12)
        assert state.n == 200

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_stiffness_product_once_per_level(self, monkeypatch, sigma):
        # M y and K y are carried on the state: the energy, the L2 norm, the
        # next right-hand side and the solve's residual check all read them,
        # so a level costs one product with M, one with K, none with the
        # step matrix (or any other) and one SuperLU solve, at either sigma
        problem = macro.MacroProblem(
            mesh=msh.build_unit_square_mesh(6), tensor=np.eye(2),
            kernel=make_kernel([30.0, 5.0], [50.0, 200.0], r=0.1),
            u0=cli._resolve_u0("paper"), tau=1e-3, t_end=0.01, sigma=sigma,
        )
        state = macro.init_state(problem)
        ops = state.ops
        names = {id(ops.mass): "M", id(ops.stiffness): "K"}
        calls = []
        matmul = sp.csr_matrix.__matmul__

        def counting_matmul(a, x):
            calls.append(names.get(id(a), "other"))
            return matmul(a, x)

        def counting_solve(b, solve=ops.solve_step):
            calls.append("solve")
            return solve(b)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
        ops.solve_step = counting_solve
        for _ in range(problem.n_steps):
            calls.clear()
            state = macro.step(state, problem)
            macro.energy(state)
            macro.l2_norm(state)
            assert collections.Counter(calls) == {"M": 1, "K": 1, "solve": 1}
        assert state.n == 10


class TestBalanceAndNorm:
    @pytest.mark.filterwarnings("ignore:sigma=0.")
    @pytest.mark.parametrize("sigma, tau", [(1.0, 1e-3), (0.5, 1e-3),
                                            (0.25, 1e-4), (0.0, 1e-4)])
    def test_discrete_energy_balance(self, sigma, tau):
        # testing the scheme with tau y_t gives, for E = y'Ky + sum_k a_k
        # w_k'Mw_k, exactly E^{n+1} - E^n = -Diss with
        # Diss = 2 tau [(1+r)|y_t|_M^2 + (sigma-1/2) tau |y_t|_K^2
        #   + sum_k a_k ((sigma-1/2) tau |w_k,t|_M^2 + lambda_k |w_k^sigma|_M^2)]
        mesh = msh.build_unit_square_mesh(8)
        tensor = np.array([[1.2, 0.2], [0.2, 0.9]])
        amps, rates, r = np.array([30.0, 5.0, 1.0]), np.array([50.0, 200.0, 900.0]), 0.1
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor, kernel=make_kernel(amps, rates, r=r),
            u0=cli._resolve_u0("paper"), tau=tau, t_end=50 * tau, sigma=sigma,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, tensor)

        def m_sq(v):
            return np.einsum("...i,ij,...j->...", v, m_arr, v)

        def dense_energy(y, w):
            return y @ k_arr @ y + amps @ m_sq(w)

        state = macro.init_state(problem)
        e_first = dense_energy(state.y, aux_fields(state, m_arr))
        for _ in range(problem.n_steps):
            y, w = state.y, aux_fields(state, m_arr)
            state = macro.step(state, problem)
            y_next, w_next = state.y, aux_fields(state, m_arr)
            y_t, w_t = (y_next - y) / tau, (w_next - w) / tau
            w_sig = sigma * w_next + (1.0 - sigma) * w
            terms = np.concatenate([
                [(1.0 + r) * m_sq(y_t), (sigma - 0.5) * tau * (y_t @ k_arr @ y_t)],
                amps * (sigma - 0.5) * tau * m_sq(w_t),
                amps * rates * m_sq(w_sig),
            ])
            defect = (dense_energy(y_next, w_next) - dense_energy(y, w)
                      + 2.0 * tau * terms.sum())
            assert abs(defect) <= 1e-13 * e_first
            if sigma >= 0.5:
                assert terms.min() >= 0.0

    def test_l2_norm_stays_relative_on_a_decaying_run(self):
        # the norm falls by ~1e18; every level's L2 norm must stay on the
        # dense sqrt(y'My), so M y cannot carry an absolute error
        mesh = msh.build_unit_square_mesh(10)
        tensor = np.array([[1.2, 0.2], [0.2, 0.9]])
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor,
            kernel=make_kernel([30.0, 5.0, 1.0], [50.0, 200.0, 900.0], r=0.1),
            u0=cli._resolve_u0("paper"), tau=1e-2, t_end=4.0, sigma=1.0,
        )
        _, m_arr, _ = reduced_operators(mesh, tensor)
        result = macro.run(problem)
        rows, _ = trajectory(problem)
        dense = np.sqrt(np.einsum("ni,ij,nj->n", rows, m_arr, rows))
        assert dense[0] / dense[-1] >= 1e15
        np.testing.assert_allclose(result.l2_norms, dense, rtol=1e-12, atol=0.0)


class TestStepChecks:
    def test_inexact_step_solve_raises_with_residual(self):
        problem = macro.MacroProblem(
            mesh=msh.build_unit_square_mesh(6), tensor=np.eye(2),
            kernel=make_kernel([30.0, 5.0], [50.0, 200.0], r=0.1),
            u0=mode_u0, tau=1e-3, t_end=1e-2,
        )
        state = macro.init_state(problem)
        solve = state.ops.solve_step
        state.ops.solve_step = lambda b: solve(b) * (1.0 + 1e-6)
        with pytest.raises(ConvergenceError, match="relative residual") as err:
            macro.step(state, problem)
        assert err.value.residual == pytest.approx(1e-6, rel=1e-3)

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_zero_initial_condition_steps_exact_zeros(self, sigma):
        problem = macro.MacroProblem(
            mesh=msh.build_unit_square_mesh(6), tensor=np.eye(2),
            kernel=make_kernel([30.0, 5.0], [50.0, 200.0], r=0.1),
            u0=cli._resolve_u0("zero"), tau=1e-3, t_end=1e-2, sigma=sigma,
        )
        state = macro.init_state(problem)
        with np.errstate(all="raise"):  # a 0/0 in the residual would raise
            for _ in range(problem.n_steps):
                state = macro.step(state, problem)
                assert macro.energy(state) == 0.0 and macro.l2_norm(state) == 0.0
        assert not state.y.any() and not state.w.any() and not state.q.any()

    @pytest.mark.filterwarnings("ignore:sigma=0.25 < 1/2")
    @pytest.mark.parametrize("sigma, tau_rates", [
        # decays d_k = 0, -1/3 and 1/4: the first folds every level
        (0.5, [2.0, 4.0, 1.2]),
        # decays -7/3, -149/51 and 1/4: |d_k| > 1 overflows the factor
        (0.25, [20.0, 200.0, 12.0 / 13.0]),
    ])
    def test_integrating_factor_matches_plain_recurrence(self, sigma, tau_rates):
        # every factor leaves its range within 100 levels and is folded into
        # its row; the block must still hold M w_k of the plain recurrence
        mesh = msh.build_unit_square_mesh(5)
        amps, tau = np.array([30.0, 5.0, 1.0]), 1e-4
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2),
            kernel=make_kernel(amps, np.array(tau_rates) / tau, r=0.1),
            u0=cli._resolve_u0("paper"), tau=tau, t_end=100 * tau, sigma=sigma,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, np.eye(2))
        x = np.array(tau_rates)
        decay = (1.0 - (1.0 - sigma) * x) / (1.0 + sigma * x)
        state = macro.init_state(problem)
        folded = np.zeros(amps.size, dtype=bool)
        for y, w in plain_levels(problem, k_arr, m_arr):
            s_before = state.s
            state = macro.step(state, problem)
            folded |= state.s != decay * s_before
            scale = np.abs(y).max()
            assert np.abs(state.y - y).max() <= 1e-12 * scale
            m_w = w @ m_arr
            assert np.abs(state.s[:, None] * state.w - m_w).max() <= 1e-12 * np.abs(m_w).max()
            q = np.einsum("ki,ki->k", m_w, w)
            np.testing.assert_allclose(state.q, q, rtol=1e-12, atol=1e-12 * q.max())
            assert macro.energy(state) == pytest.approx(
                y @ k_arr @ y + amps @ q, rel=1e-12)
        assert folded.all()

    @pytest.mark.filterwarnings("ignore:sigma=0.0 < 1/2")
    def test_explicit_blow_up_keeps_finite_energies(self):
        # sigma = 0 far past its step limit grows by ~1e150 before the energy
        # overflows; the factors (decays 0.5, -1 and -8) must not overflow
        # first, and every level matches the plain recurrence
        mesh = msh.build_unit_square_mesh(5)
        amps = np.array([30.0, 5.0, 1.0])
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2),
            kernel=make_kernel(amps, [50.0, 200.0, 900.0], r=0.1),
            u0=cli._resolve_u0("paper"), tau=1e-2, t_end=1.0, sigma=0.0,
        )
        k_arr, m_arr, _ = reduced_operators(mesh, np.eye(2))
        result = macro.run(problem)
        plain = [y @ k_arr @ y + amps @ np.einsum("ki,ij,kj->k", w, m_arr, w)
                 for y, w in plain_levels(problem, k_arr, m_arr)]
        assert result.energies[-1] / result.energies[0] > 1e100
        np.testing.assert_allclose(result.energies[1:], plain, rtol=1e-10, atol=0.0)
class TestInitialCondition:
    def test_projection_reproduces_grid_functions(self):
        # if u0 already lies in the P1 space the projection must return its
        # nodal values exactly (the quadrature is exact on quadratics); the
        # projection only ever samples edge midpoints, where the P1 value is
        # the endpoint average, so a lookup table represents u0 exactly
        mesh = msh.build_unit_square_mesh(6)
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 1.5, size=mesh.n_vertices)
        on_boundary = np.isin(
            np.arange(mesh.n_vertices), np.unique(mesh.boundary_edges)
        )
        values[on_boundary] = 0.0

        midpoint_value = {}
        for tri in mesh.triangles:
            for i, j in ((0, 1), (1, 2), (2, 0)):
                mid = 0.5 * (mesh.vertices[tri[i]] + mesh.vertices[tri[j]])
                key = tuple(np.round(mid * 1e9).astype(np.int64))
                midpoint_value[key] = 0.5 * (values[tri[i]] + values[tri[j]])

        def u0(x1, x2):
            pts = np.stack([np.ravel(x1), np.ravel(x2)], axis=1)
            keys = np.round(pts * 1e9).astype(np.int64)
            out = np.array([midpoint_value[tuple(k)] for k in keys])
            return out.reshape(np.shape(x1))

        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=make_kernel([1.0], [2.0]),
            u0=u0, tau=1e-2, t_end=0.0,
        )
        result = macro.run(problem, snapshot_times=[0.0])
        _, nodal = result.snapshots[0]
        assert np.abs(nodal - values).max() <= 1e-12


class TestRunBookkeeping:
    def test_series_and_snapshots(self):
        mesh = msh.build_unit_square_mesh(4)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=make_kernel([2.0], [5.0]),
            u0=mode_u0, tau=2e-3, t_end=1e-2,
        )
        result = macro.run(problem, snapshot_times=(0.0, 1e-2))
        assert problem.n_steps == 5
        np.testing.assert_allclose(result.times, np.arange(6) * 2e-3)
        assert result.energies.shape == result.l2_norms.shape == (6,)
        assert result.final.n == 5
        assert [t for t, _ in result.snapshots] == [0.0, 1e-2]
        for _, nodal in result.snapshots:
            assert nodal.shape == (mesh.n_vertices,)
            assert np.abs(nodal[np.unique(mesh.boundary_edges)]).max() == 0.0
        rows, last = trajectory(problem)
        assert rows.shape[0] == 6
        state0 = macro.init_state(problem)
        np.testing.assert_allclose(rows[0], state0.y, atol=1e-14)
        np.testing.assert_array_equal(last.y, result.final.y)
        assert result.initial_energy == result.energies[0]
        assert result.final_energy == result.energies[-1]

    def test_snapshot_time_out_of_range(self):
        mesh = msh.build_unit_square_mesh(3)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=make_kernel([1.0], [2.0]),
            u0=mode_u0, tau=1e-3, t_end=1e-2,
        )
        with pytest.raises(ValueError):
            macro.run(problem, snapshot_times=[1.0])


class TestValidation:
    def test_problem_rejects_bad_parameters(self):
        mesh = msh.build_unit_square_mesh(3)
        kernel = make_kernel([1.0], [2.0])
        good = dict(mesh=mesh, tensor=np.eye(2), kernel=kernel, u0=mode_u0,
                    tau=1e-2, t_end=1e-1)
        macro.MacroProblem(**good)
        for bad in ({"tau": 0.0}, {"tau": math.nan}, {"tau": math.inf},
                    {"sigma": 1.2}, {"sigma": -0.1}, {"t_end": -1.0},
                    {"t_end": math.inf}, {"t_end": 1.05e-1}):
            with pytest.raises(ValueError):
                macro.MacroProblem(**{**good, **bad})

    def test_conditionally_stable_warns(self):
        mesh = msh.build_unit_square_mesh(3)
        problem = macro.MacroProblem(
            mesh=mesh, tensor=np.eye(2), kernel=make_kernel([1.0], [2.0]),
            u0=mode_u0, tau=1e-3, t_end=2e-3, sigma=0.25,
        )
        assert problem.conditionally_stable
        with pytest.warns(UserWarning):
            macro.init_state(problem)

"""Macro time stepping: hand recurrences, block-system equivalence, energy."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from homogmem import cli, fem, kernel as ker, macro, mesh as msh
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
        mesh, stiff, mass, dirichlet_tags=("outer",)
    )
    return k_red.toarray(), m_red.toarray(), dofmap


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
        assert state.w[0, 0] == pytest.approx(w, rel=1e-12)
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
        assert np.abs(state.w - w).max() <= 1e-10 * scale

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
        for got, want in ((b.y, a.y), (b.w, a.w), (b.q, a.q)):
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
            a * (wk @ m_arr @ wk) for a, wk in zip([2.0, 1.0], state.w)
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
                a * (wk @ m_arr @ wk) for a, wk in zip(amps, state.w)
            )
            assert macro.energy(state) == pytest.approx(dense, rel=1e-12)
        assert state.n == 200

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_carried_mass_product_matches_dense_formula(self, sigma):
        # M y is updated from each increment, not recomputed; after 200
        # steps it and the L2 norm built on it stay on the dense products
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
        # K y is carried on the state: the energy and the sigma < 1
        # right-hand side both read it, so 10 levels after the initial one
        # cost 11 products with K at either sigma
        products = []

        class CountingMatrix:
            def __init__(self, a):
                self.a = a

            def __matmul__(self, x):
                products.append(x)
                return self.a @ x

        init = macro._StepOperator.__init__

        def counting_init(self, problem):
            init(self, problem)
            self.stiffness = CountingMatrix(self.stiffness)

        monkeypatch.setattr(macro._StepOperator, "__init__", counting_init)
        problem = macro.MacroProblem(
            mesh=msh.build_unit_square_mesh(6), tensor=np.eye(2),
            kernel=make_kernel([30.0, 5.0], [50.0, 200.0], r=0.1),
            u0=cli._resolve_u0("paper"), tau=1e-3, t_end=0.01, sigma=sigma,
        )
        result = macro.run(problem)
        assert result.energies.size == 11
        assert len(products) == 11


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

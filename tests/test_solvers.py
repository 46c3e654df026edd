"""Direct solves and eigensolver against dense/analytic oracles."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homogmem import fem, mesh as msh, solvers
from homogmem.errors import ConvergenceError


def laplacian_system(n, dirichlet=True):
    mesh = msh.build_unit_square_mesh(n)
    k = fem.assemble_stiffness(mesh, 1.0)
    m = fem.assemble_mass(mesh)
    if not dirichlet:
        return k, m
    k_red, m_red, _ = fem.apply_constraints(mesh, k, m, dirichlet_tags=(msh.OUTER,))
    return k_red, m_red


class TestSolveSpd:
    def test_matches_dense_factorization(self):
        k, _ = laplacian_system(10)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(k.shape[0])
        x = solvers.solve_spd(k, b, tol=1e-12)
        ref = np.linalg.solve(k.toarray(), b)
        np.testing.assert_allclose(x, ref, atol=1e-9)

    def test_zero_rhs_returns_zero(self):
        k, _ = laplacian_system(4)
        x = solvers.solve_spd(k, np.zeros(k.shape[0]))
        assert (x == 0.0).all()

    def test_residual_contract(self):
        k, _ = laplacian_system(16)
        b = np.ones(k.shape[0])
        for tol in (1e-6, 1e-10, 1e-13):
            x = solvers.solve_spd(k, b, tol=tol)
            assert np.linalg.norm(b - k @ x) <= tol * np.linalg.norm(b)

    def test_singular_matrix_raises(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                    [0.0, 0.0, 1.0]]))
        with pytest.raises(ConvergenceError):
            solvers.solve_spd(a, np.ones(3))

    def test_ill_conditioned_system_raises_with_residual(self):
        # Hilbert(10) has condition ~1e13: the LU solution is backward
        # stable, but its relative residual sits far above 1e-14
        a = sp.csr_matrix(scipy.linalg.hilbert(10))
        with pytest.raises(ConvergenceError) as err:
            solvers.solve_spd(a, np.ones(10), tol=1e-14)
        assert err.value.residual is not None
        assert err.value.residual > 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, bad):
        k, _ = laplacian_system(4)
        b = np.ones(k.shape[0])
        b[3] = bad
        with pytest.raises(ConvergenceError):
            solvers.solve_spd(k, b)

    def test_factor_is_reused_across_right_hand_sides(self):
        k, _ = laplacian_system(10)
        solve = solvers.factor_transpose(k)
        rng = np.random.default_rng(3)
        for _ in range(3):
            b = rng.standard_normal(k.shape[0])
            x = solve(b)
            assert solvers.check_residual(b, k @ x, 1e-12) <= 1e-12
            np.testing.assert_allclose(x, np.linalg.solve(k.toarray(), b), atol=1e-9)
        with pytest.raises(ValueError):
            solve(np.ones(k.shape[0] + 1))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solvers.solve_spd(sp.eye(3, format="csr"), np.zeros(4))
        with pytest.raises(ValueError):
            solvers.solve_spd(sp.csr_matrix(np.ones((2, 3))), np.ones(2))

    def test_check_residual_returns_the_achieved_residual(self):
        b = np.array([3.0, 4.0])
        assert solvers.check_residual(b, b, 1e-10) == 0.0
        assert solvers.check_residual(b, b - [0.0, 5e-11], 1e-10) == pytest.approx(
            1e-11, rel=1e-6)
        assert solvers.check_residual(np.zeros(2), np.zeros(2), 1e-10) == 0.0
        with pytest.raises(ConvergenceError) as err:
            solvers.check_residual(b, b - [0.0, 5e-9], 1e-10)
        assert err.value.residual == pytest.approx(1e-9, rel=1e-6)
        with pytest.raises(ConvergenceError):
            solvers.check_residual(np.zeros(2), np.array([1e-100, 0.0]), 1e-10)

    def test_nonsymmetric_matrix_with_zero_diagonal(self):
        # symmetric mode prefers diagonal pivots; with every diagonal entry
        # zero it has to pivot off the diagonal to solve at all
        rng = np.random.default_rng(11)
        n = 40
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        dense += np.roll(np.diag(n * (1.0 + rng.random(n))), 1, axis=1)
        np.fill_diagonal(dense, 0.0)
        a = sp.csr_matrix(dense)
        assert (a != a.T).nnz > 0
        b = rng.standard_normal(n)
        x = solvers.solve_spd(a, b, tol=1e-12)
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=1e-12)

    def test_same_solution_from_csr_csc_and_coo(self):
        k, _ = laplacian_system(10)
        b = np.random.default_rng(5).standard_normal(k.shape[0])
        x_csr = solvers.solve_spd(k.tocsr(), b, tol=1e-12)
        for other in (k.tocsc(), k.tocoo()):
            np.testing.assert_array_equal(solvers.solve_spd(other, b, tol=1e-12), x_csr)

    @given(st.integers(5, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_spd_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        a = sp.csr_matrix(raw @ raw.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x = solvers.solve_spd(a, b, tol=1e-12)
        np.testing.assert_allclose(x, np.linalg.solve(a.toarray(), b),
                                   atol=1e-8, rtol=1e-8)


class TestSmallestEigenpairs:
    def test_square_membrane_modes_dense_path(self, monkeypatch):
        # lambda_mn = pi^2 (m^2 + n^2): 2, 5, 5, 8, 10, 10 times pi^2; the
        # P1 discretization error is O(lambda h^2), about 2.5% for the sixth
        # mode at n=20, and conforming approximations converge from above
        k, m = laplacian_system(20)  # 361 dofs, 50 pairs -> dense branch
        monkeypatch.setattr(solvers.spla, "eigsh", None)
        pairs = solvers.smallest_eigenpairs(k, m, 50)
        ref = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0])
        np.testing.assert_allclose(pairs.values[:6], ref, rtol=3e-2)
        assert (pairs.values[:6] >= ref - 1e-9).all()

    def test_few_pairs_of_a_few_hundred_dofs_use_shift_invert(self, monkeypatch):
        k, m = laplacian_system(20)  # 361 dofs, 6 pairs -> shift-invert branch
        dense = solvers.smallest_eigenpairs(k, m, 50)
        monkeypatch.setattr(solvers.scipy.linalg, "eigh", None)
        pairs = solvers.smallest_eigenpairs(k, m, 6)
        np.testing.assert_allclose(pairs.values, dense.values[:6], rtol=1e-10)

    def test_shift_invert_uses_the_package_factor(self, monkeypatch):
        # eigsh gets K's transposed SuperLU factor as OPinv instead of
        # building its own
        k, m = laplacian_system(20)  # 361 dofs, 6 pairs -> shift-invert branch
        calls = []
        eigsh = solvers.spla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(solvers.spla, "eigsh", spy)
        solvers.smallest_eigenpairs(k, m, 6)
        assert len(calls) == 1
        op = calls[0]["OPinv"]
        b = np.random.default_rng(2).standard_normal(k.shape[0])
        x = op.matvec(b)
        assert np.linalg.norm(k @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_square_membrane_modes_sparse_path(self):
        k, m = laplacian_system(40)  # 1521 dofs -> shift-invert branch
        pairs = solvers.smallest_eigenpairs(k, m, 6)
        ref = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0])
        np.testing.assert_allclose(pairs.values, ref, rtol=1e-2)
        assert (pairs.values >= ref - 1e-9).all()
        assert pairs.count == 6
        assert pairs.residuals.max() < 1e-8

    def test_paths_agree(self):
        k, m = laplacian_system(30)  # 841 dofs -> sparse; compare with dense
        sparse = solvers.smallest_eigenpairs(k, m, 4)
        dense_vals = scipy.linalg.eigh(k.toarray(), m.toarray(),
                                       eigvals_only=True)[:4]
        np.testing.assert_allclose(sparse.values, dense_vals, rtol=1e-8)

    def test_m_orthonormality(self):
        k, m = laplacian_system(24)
        pairs = solvers.smallest_eigenpairs(k, m, 5)
        gram = pairs.vectors.T @ (m @ pairs.vectors)
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)

    def test_determinism(self):
        k, m = laplacian_system(40)
        a = solvers.smallest_eigenpairs(k, m, 3)
        b = solvers.smallest_eigenpairs(k, m, 3)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_argument_validation(self):
        k, m = laplacian_system(6)
        with pytest.raises(ValueError):
            solvers.smallest_eigenpairs(k, m, 0)
        with pytest.raises(ValueError):
            solvers.smallest_eigenpairs(k, m, k.shape[0] + 1)
        with pytest.raises(ValueError):
            solvers.smallest_eigenpairs(k, sp.eye(3, format="csr"), 1)

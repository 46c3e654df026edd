"""Sparse direct solves and partial generalized eigensolves.

Every linear system in the package has a fixed SPD matrix: the macro step
matrix, the mass projection and the folded corrector system.  Each is
factorised once with SuperLU in symmetric mode (``factor_transpose``): the
factor is of a', the zero-copy CSC view of a's CSR arrays, and each solve
is SuperLU's transposed solve, which is exact for any square a and faster
than the plain one.  Every solve checks its true residual by one rule,
``check_residual``, so a singular matrix, a non-finite right-hand side or
an unmet tolerance raises ConvergenceError.  ``solve_spd``, the one-shot
solve, applies it with one product with a; the macro step applies it to
the products with M and K that it makes anyway, and the corrector solve to
the unfolded periodic system.

Smallest eigenpairs of K phi = lambda M phi come from shift-invert ARPACK
at shift 0 with the same factor of K as its inverse operator (dense LAPACK
for small systems or large counts), with deterministic start vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

_SEED = 1729
# Dense LAPACK costs O(n^3) whatever the count, shift-invert Lanczos about
# one sparse solve per Lanczos vector: below _DENSE_LIMIT dofs, or for more
# than one pair in _DENSE_SHARE dofs, the dense solve is the faster one.
_DENSE_LIMIT = 200
_DENSE_SHARE = 8


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues, M-orthonormal eigenvectors, and residuals.

    ``residuals[k]`` is ||K v_k - lambda_k M v_k||_2 / max(lambda_k, 1).
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return self.values.shape[0]


def factor_transpose(a: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a' with SuperLU and return the unchecked solve of a x = b.

    ``a.T`` is the CSC view of ``a``'s CSR arrays, so nothing is copied;
    minimum degree on A'+A orders a' as it orders a, and symmetric mode
    pivots on the diagonal (off it only where it must).  The transposed
    solve of the factor of a' solves a x = b for any square ``a``.  A
    singular factorisation raises ConvergenceError.  A caller that solves
    with it checks each solution with :func:`check_residual`.
    """
    try:
        lu = spla.splu(a.T, permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
    except RuntimeError as err:  # SuperLU reports an exactly zero pivot
        raise ConvergenceError(f"matrix is singular: {err}") from err
    return lambda b: lu.solve(b, trans="T")


def check_residual(b: np.ndarray, ax: np.ndarray, tol: float) -> float:
    """The residual rule of every linear solve in the package.

    ``ax`` is the product a x of the system's matrix with the solution.
    Returns the true relative residual ||b - a x|| / ||b|| (0.0 for a zero
    ``b``), and raises ConvergenceError when ``b`` is not finite, or when
    that residual is above ``tol`` or not finite.  The rule is
    ||b - a x|| <= tol ||b||, so a zero ``b`` passes with a zero ``ax`` and
    no 0/0.
    """
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise ConvergenceError("right-hand side is not finite")
    rnorm = np.linalg.norm(b - ax)
    rel = float(rnorm / bnorm) if bnorm else float(np.inf if rnorm else 0.0)
    if not rnorm <= tol * bnorm:  # also catches NaN
        raise ConvergenceError(
            f"direct solve reached relative residual {rel:.3e}, "
            f"above {tol:.1e}", residual=rel,
        )
    return rel


def solve_spd(a: sp.spmatrix, b: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve a x = b once, checked to relative residual ``tol``.

    The matrix is factored with :func:`factor_transpose` and the solution
    checked with :func:`check_residual`, one matrix-vector product; a zero
    right-hand side returns zeros.  A caller that solves with the same
    matrix again keeps the factor of :func:`factor_transpose` instead and
    checks each solution itself.
    """
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side of shape {b.shape} for a {n}-dof system")
    if not b.any():
        return np.zeros(n)
    a = sp.csr_matrix(a)
    x = factor_transpose(a)(b)
    check_residual(b, a @ x, tol)
    return x


def smallest_eigenpairs(k: sp.spmatrix, m: sp.spmatrix, count: int,
                        tol: float = 1e-8) -> EigenPairs:
    """Lowest ``count`` eigenpairs of K v = lambda M v, M-orthonormal."""
    n = k.shape[0]
    if k.shape != (n, n) or m.shape != (n, n):
        raise ValueError("matrices must be square and of equal size")
    if count < 1:
        raise ValueError(f"eigenpair count must be >= 1, got {count}")
    if count > n:
        raise ValueError(f"requested {count} eigenpairs of a {n}-dof system")

    if n < _DENSE_LIMIT or count > n // _DENSE_SHARE:
        kd = k.toarray() if sp.issparse(k) else np.asarray(k, dtype=float)
        md = m.toarray() if sp.issparse(m) else np.asarray(m, dtype=float)
        values, vectors = scipy.linalg.eigh(kd, md, subset_by_index=(0, count - 1))
    else:
        rng = np.random.default_rng(_SEED)
        v0 = rng.standard_normal(n)
        k_inv = spla.LinearOperator(
            (n, n), matvec=factor_transpose(sp.csr_matrix(k)), dtype=float
        )
        try:
            values, vectors = spla.eigsh(
                k, k=count, M=m, sigma=0.0, which="LM", v0=v0, tol=tol * 1e-2,
                OPinv=k_inv,
            )
        except spla.ArpackNoConvergence as err:
            raise ConvergenceError(f"eigensolver did not converge: {err}") from err
        order = np.argsort(values)
        values = values[order]
        vectors = vectors[:, order]

    kv = k @ vectors
    mv = m @ vectors
    residuals = np.linalg.norm(kv - mv * values[None, :], axis=0) / np.maximum(
        values, 1.0
    )
    gram = vectors.T @ mv
    ortho_defect = np.abs(gram - np.eye(count)).max()
    if ortho_defect > 1e-8:
        raise ConvergenceError(
            f"eigenvectors lost M-orthonormality (defect {ortho_defect:.3e})"
        )
    if residuals.max() > tol:
        raise ConvergenceError(
            f"eigen residual {residuals.max():.3e} exceeds tol {tol:.1e}",
            residual=float(residuals.max()),
        )
    return EigenPairs(values=values, vectors=vectors, residuals=residuals)

"""Exception types shared across the package."""
from __future__ import annotations


class HomogError(Exception):
    """Base class for domain errors raised by this package."""


class GeometryError(HomogError, ValueError):
    """Inclusion geometry is degenerate or incompatible with the cell."""


class PeriodicityError(HomogError, ValueError):
    """Opposite cell edges cannot be paired within tolerance."""


class MeshFormatError(HomogError, ValueError):
    """A mesh file is malformed or uses an unsupported dialect."""


class ConvergenceError(HomogError, RuntimeError):
    """A numerical failure: a linear solve or eigensolve missed its
    tolerance, a factorisation met a singular matrix, or the time stepping
    reached a non-finite state.

    The achieved relative residual, when there is one, is kept in
    ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual

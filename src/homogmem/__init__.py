"""Computational homogenization of diffusion with memory effects.

Three stages: periodic cell correctors give the effective diffusion tensor,
the inclusion eigenproblem gives a filtered exponential-sum memory kernel,
and an extended local system advances the macroscale solution with
unconditionally stable weighted two-level schemes.
"""

__version__ = "0.1.0"

"""Computational homogenization of diffusion with memory effects.

Three stages: periodic cell correctors give the effective diffusion tensor,
the inclusion eigenproblem gives a filtered exponential-sum memory kernel,
and an extended local system advances the macroscale solution with
unconditionally stable weighted two-level schemes.
"""

__version__ = "0.1.0"

from .cell import (  # noqa: F401
    CorrectorComponent,
    CorrectorSolution,
    EffectiveTensor,
    effective_tensor,
    solve_correctors,
)
from .errors import (  # noqa: F401
    ConvergenceError,
    GeometryError,
    HomogError,
    MeshFormatError,
    PeriodicityError,
)
from .fem import (  # noqa: F401
    DofMap,
    apply_constraints,
    assemble_corrector_rhs,
    assemble_mass,
    assemble_stiffness,
)
from .kernel import (  # noqa: F401
    KernelApproximation,
    build_kernel,
    eval_kernel,
    filter_kernel,
)
from .macro import (  # noqa: F401
    MacroProblem,
    MacroState,
    RunResult,
    energy,
    init_state,
    run,
    step,
)
from .mesh import (  # noqa: F401
    CellGeometry,
    TriMesh,
    build_cell_mesh,
    build_inclusion_mesh,
    build_unit_square_mesh,
    periodic_pairs,
    read_msh,
    submesh,
    validate_mesh,
)
from .solvers import EigenPairs, smallest_eigenpairs, solve_spd  # noqa: F401

"""Accelerated solvers for bordered block-Toeplitz systems."""

from .bordered import BorderedOperator, bordered_matvec, bordered_matvec_adjoint
from .gmres import (
    SEQUENTIAL_BLOCK,
    GmresConfig,
    SolveReport,
    solve_multi_rhs_sequential,
    solve_multi_rhs_vectorized,
)
from .precond import Preconditioner, build_pk, build_pz
from .rybicki import RybickiWorkspace, assemble_level1, rybicki_solve
from .schur import schur_solve
from .spectrum import spectrum_estimate

__all__ = [
    "BorderedOperator",
    "bordered_matvec",
    "bordered_matvec_adjoint",
    "SEQUENTIAL_BLOCK",
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_sequential",
    "solve_multi_rhs_vectorized",
    "Preconditioner",
    "build_pk",
    "build_pz",
    "RybickiWorkspace",
    "assemble_level1",
    "rybicki_solve",
    "schur_solve",
    "spectrum_estimate",
]

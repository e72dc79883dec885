"""Accelerated solvers for bordered block-Toeplitz systems."""

from .bordered import BorderedOperator, bordered_matvec
from .gmres import (
    SEQUENTIAL_BLOCK,
    GmresConfig,
    SolveReport,
    solve_multi_rhs_sequential,
    solve_multi_rhs_vectorized,
)
from .precond import Preconditioner, build_pk, build_pz
from .rybicki import assemble_level1, rybicki_solve
from .schur import schur_solve

__all__ = [
    "BorderedOperator",
    "bordered_matvec",
    "SEQUENTIAL_BLOCK",
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_sequential",
    "solve_multi_rhs_vectorized",
    "Preconditioner",
    "build_pk",
    "build_pz",
    "assemble_level1",
    "rybicki_solve",
    "schur_solve",
]

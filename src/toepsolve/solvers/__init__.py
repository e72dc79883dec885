"""Accelerated solvers for bordered block-Toeplitz systems."""

from .bordered import BorderedOperator, SchurComplement, bordered_matvec, schur_matvec
from .gmres import (
    BLOCK_WIDTH,
    GmresConfig,
    SolveReport,
    solve_multi_rhs_vectorized,
)
from .precond import Preconditioner, build_pk, build_pz
from .rybicki import assemble_level1, rybicki_solve
from .schur import schur_solve

__all__ = [
    "BorderedOperator",
    "SchurComplement",
    "bordered_matvec",
    "schur_matvec",
    "BLOCK_WIDTH",
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_vectorized",
    "Preconditioner",
    "build_pk",
    "build_pz",
    "assemble_level1",
    "rybicki_solve",
    "schur_solve",
]

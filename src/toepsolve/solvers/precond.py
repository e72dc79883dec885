"""Block-diagonal preconditioners for GMRES on the array's Schur complement.

GMRES iterates on S_A = Z_A - Z_B^T Z_C^-1 Z_B, the array block with the
border eliminated (``bordered.SchurComplement``), right-preconditioned by
P_A = diag(P'_X, ..., P'_X).  The shared block P'_X is the self block of
one element ("pk", side ne) or the assembled self interaction of one
array row ("pz", side nx*ne, a 1-level block-Toeplitz matrix).  Its
inverse is formed once, by ``numerics.inverse``, so applying P_A^-1 is
one product broadcast over the array segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import numerics
from ..errors import ShapeError
from ..toeplitz import assemble_dense_1l

__all__ = ["Preconditioner", "build_pk", "build_pz"]


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """P_A = diag(P'_X, ..., P'_X): one shared block inverse over the array segments."""

    block_inverse: np.ndarray  # (side, side), shared by every array segment
    array_dim: int

    def __post_init__(self):
        if self.array_dim % self.block_inverse.shape[0]:
            raise ShapeError(
                f"array dim {self.array_dim} not divisible by block side {self.block_inverse.shape[0]}"
            )

    def apply(self, v) -> np.ndarray:
        """P_A^-1 v for an (array_dim, columns) block v."""
        arr = numerics.as_columns(v, self.array_dim)
        side = self.block_inverse.shape[0]
        stacked = (self.array_dim // side, side, arr.shape[1])  # segments, side, columns
        out = np.empty(arr.shape, dtype=np.result_type(self.block_inverse, arr))
        np.matmul(self.block_inverse, arr.reshape(stacked), out=out.reshape(stacked))
        return out


def build_pk(sys) -> Preconditioner:
    """Element-block preconditioner: one inverse of the level-0 self block, ne^2 scalars."""
    return Preconditioner(numerics.inverse(sys.gen.blocks[0, 0]), sys.array_dim)


def build_pz(sys) -> Preconditioner:
    """Row-block preconditioner: one inverse of the level-1 self matrix of an array row.

    It stores nx^2*ne^2 scalars; for nx = 1 it coincides with ``build_pk``'s.
    """
    return Preconditioner(numerics.inverse(assemble_dense_1l(sys.gen.blocks[0])), sys.array_dim)

"""Block-diagonal preconditioners for the bordered iterative solver.

Two variants exploit the strong self interaction of the array:

* element kind ("pk"): the diagonal block is the self block of a single
  element (side ne).  One LU serves every element.
* row kind ("pz"): the diagonal block is the assembled self interaction
  of a whole array row (side nx*ne), a 1-level block-Toeplitz matrix.

Both are completed by the border self block Z_C, giving the
block-diagonal preconditioner diag(P'_X, ..., P'_X, Z_C).  The inverses of
the shared block and of Z_C are formed once, from their LU factors, so
applying the preconditioner is one product of the shared inverse
broadcast over the array segments, and one GEMM for the border.  The
result's dtype follows the ``numerics`` convention.
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
    """Shared-inverse block-diagonal preconditioner over array segments + border."""

    block_inverse: np.ndarray  # (side, side), shared by every array segment
    border_inverse: np.ndarray  # (nb, nb)
    array_dim: int

    def __post_init__(self):
        if self.array_dim % self.block_inverse.shape[0]:
            raise ShapeError(
                f"array dim {self.array_dim} not divisible by block side {self.block_inverse.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.array_dim + self.border_inverse.shape[0]

    @property
    def stored_bytes(self) -> int:
        """Bytes of the two stored inverses."""
        return self.block_inverse.nbytes + self.border_inverse.nbytes

    def apply(self, v) -> np.ndarray:
        """P^-1 v for a (dim, columns) block v."""
        arr = numerics.as_columns(v, self.dim)
        side = self.block_inverse.shape[0]
        stacked = (self.array_dim // side, side, arr.shape[1])  # segments, side, columns
        out = np.empty(arr.shape, dtype=np.result_type(self.block_inverse, arr))
        np.matmul(self.block_inverse, arr[: self.array_dim].reshape(stacked),
                  out=out[: self.array_dim].reshape(stacked))
        out[self.array_dim :] = self.border_inverse @ arr[self.array_dim :]
        return out


def _inverse(a) -> np.ndarray:
    """a^-1 as a C-order block, by LU and back substitution against I.

    Raises SingularMatrix if a is singular.
    """
    f = numerics.lu_factor(a)
    return numerics.as_block(numerics.lu_solve(f, np.eye(f.side)))


def _build(sys, block) -> Preconditioner:
    return Preconditioner(_inverse(block), _inverse(sys.zc), sys.array_dim)


def build_pk(sys) -> Preconditioner:
    """Element-block preconditioner from the level-0 self block.

    The self block is shared by every element, so a single inverse (ne^2
    stored scalars) is applied to all segments.
    """
    return _build(sys, sys.gen.blocks[0, 0])


def build_pz(sys) -> Preconditioner:
    """Row-block preconditioner from the assembled row self interaction.

    The diagonal block is the level-1 self matrix of one array row
    (side nx*ne, nx^2*ne^2 stored scalars); for nx = 1 it coincides with
    the element-block preconditioner.
    """
    return _build(sys, assemble_dense_1l(sys.gen.blocks[0]))

"""Block-diagonal left preconditioners for the bordered iterative solver.

Two variants exploit the strong self interaction of the array:

* element kind ("pk"): the diagonal block is the self block of a single
  element (side ne).  One LU serves every element.
* row kind ("pz"): the diagonal block is the assembled self interaction
  of a whole array row (side nx*ne), a 1-level block-Toeplitz matrix.

Both are completed by the LU of the border self block Z_C, giving the
block-diagonal preconditioner diag(P'_X, ..., P'_X, Z_C).  Application
is pure back substitution, batched over segments and columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import numerics
from ..errors import ShapeError
from ..toeplitz import assemble_dense_1l

__all__ = ["Preconditioner", "build_pk", "build_pz"]


@dataclass(frozen=True)
class Preconditioner:
    """Shared-LU block-diagonal preconditioner over array segments + border."""

    kind: str  # "pk" | "pz"
    element_lu: numerics.LUFactors
    border_lu: numerics.LUFactors | None
    array_dim: int
    nb: int

    def __post_init__(self):
        if self.kind not in ("pk", "pz"):
            raise ValueError(f"unknown preconditioner kind {self.kind!r}")
        if self.array_dim % self.element_lu.side:
            raise ShapeError(
                f"array dim {self.array_dim} not divisible by block side {self.element_lu.side}"
            )

    @property
    def dim(self) -> int:
        return self.array_dim + self.nb

    @property
    def stored_bytes(self) -> int:
        """Scalar storage of the diagonal blocks (one shared LU + border LU)."""
        n = self.element_lu.side**2 + (self.border_lu.side**2 if self.border_lu else 0)
        return n * 16

    def _solve_segments(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        side = self.element_lu.side
        segments = self.array_dim // side
        w = v.shape[1]
        stacked = v.reshape(segments, side, w).transpose(1, 0, 2).reshape(side, segments * w)
        solved = numerics.lu_solve(self.element_lu, stacked, adjoint=adjoint)
        return solved.reshape(side, segments, w).transpose(1, 0, 2).reshape(self.array_dim, w)

    def _apply(self, v, adjoint: bool) -> np.ndarray:
        arr = np.asarray(v, dtype=np.complex128)
        vector = arr.ndim == 1
        if vector:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != self.dim:
            raise ShapeError(f"input shape {np.shape(v)} incompatible with dim {self.dim}")
        top = self._solve_segments(arr[: self.array_dim], adjoint)
        if self.nb:
            bottom = numerics.lu_solve(self.border_lu, arr[self.array_dim :], adjoint=adjoint)
            out = np.vstack([top, bottom])
        else:
            out = top
        return out[:, 0] if vector else out

    def apply(self, v) -> np.ndarray:
        """P^-1 v by blockwise back substitution."""
        return self._apply(v, adjoint=False)

    def apply_adjoint(self, v) -> np.ndarray:
        """P^-H v, needed by the adjoint matvec of the spectrum estimator."""
        return self._apply(v, adjoint=True)


def _border_lu(sys) -> numerics.LUFactors | None:
    return numerics.lu_factor(sys.zc) if sys.nb else None


def build_pk(sys) -> Preconditioner:
    """Element-block preconditioner from the level-0 self block.

    The self block is shared by every element, so a single LU (ne^2
    stored scalars) is applied to all segments.
    """
    r00 = sys.gen.block(0, 0)
    return Preconditioner("pk", numerics.lu_factor(r00), _border_lu(sys), sys.array_dim, sys.nb)


def build_pz(sys) -> Preconditioner:
    """Row-block preconditioner from the assembled row self interaction.

    The diagonal block is the level-1 self matrix of one array row
    (side nx*ne, nx^2*ne^2 stored scalars); for nx = 1 it coincides with
    the element-block preconditioner.
    """
    row_self = assemble_dense_1l(sys.gen.column(0))
    return Preconditioner("pz", numerics.lu_factor(row_self), _border_lu(sys), sys.array_dim, sys.nb)

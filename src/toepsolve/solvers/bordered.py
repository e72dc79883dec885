"""Fast matvec for bordered systems [[Z_A, Z_B^T], [Z_B, Z_C]].

The structured part is applied through its spectral operator; the border
blocks are small and multiply densely.  The product's dtype follows the
``numerics`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..numerics import as_columns
from ..toeplitz import SpectralOperator, matvec, precompute_spectral

__all__ = ["BorderedOperator", "bordered_matvec"]


@dataclass(frozen=True, eq=False)
class BorderedOperator:
    """Matrix-free representation of a bordered block-Toeplitz matrix."""

    spectral: SpectralOperator
    zb: np.ndarray  # (nb, array_dim)
    zc: np.ndarray  # (nb, nb)

    def __post_init__(self):
        if self.zb.shape != (self.zc.shape[0], self.spectral.dim):
            raise ShapeError(
                f"border shapes {self.zb.shape}/{self.zc.shape} inconsistent with "
                f"array dim {self.spectral.dim}"
            )
        if self.zc.shape[0] != self.zc.shape[1]:
            raise ShapeError(f"border self block must be square, got {self.zc.shape}")

    @classmethod
    def from_system(cls, sys) -> "BorderedOperator":
        return cls(precompute_spectral(sys.gen), sys.zb, sys.zc)

    @property
    def array_dim(self) -> int:
        return self.spectral.dim

    @property
    def nb(self) -> int:
        return self.zb.shape[0]

    @property
    def dim(self) -> int:
        return self.array_dim + self.nb


def bordered_matvec(op: BorderedOperator, x) -> np.ndarray:
    """[Z_A x_A + Z_B^T x_C ; Z_B x_A + Z_C x_C] for an (op.dim, columns) block.

    It is computed into one array whose two row blocks take the Toeplitz
    product and the border GEMMs.
    """
    arr = as_columns(x, op.dim)
    xa, xc = arr[: op.array_dim], arr[op.array_dim :]
    out = np.empty(arr.shape, dtype=np.result_type(op.spectral.diag_blocks, arr))
    top, bottom = out[: op.array_dim], out[op.array_dim :]
    top[...] = matvec(op.spectral, xa)
    top += op.zb.T @ xc
    np.matmul(op.zb, xa, out=bottom)
    bottom += op.zc @ xc
    return out

"""Fast matvecs for bordered systems [[Z_A, Z_B^T], [Z_B, Z_C]], and the border elimination.

The structured part is applied through its spectral operator and the
small border blocks multiply densely, in the ``numerics`` convention.
``bordered_matvec`` applies the whole matrix.  ``SchurComplement`` is the
array block's Schur complement S_A = Z_A - Z_B^T Z_C^-1 Z_B, on which
GMRES iterates once the border is eliminated, and the one owner of
Z_C^-1: every product with it is one of S_A's three jobs,

- ``schur_matvec``, S_A u;
- ``SchurComplement.reduced_rhs``, b~ = V_A - Z_B^T Z_C^-1 V_C and the
  factor that scales GMRES's tol, so that a column that meets
  tol * ||b~_j|| meets tol * ||V_j||;
- ``SchurComplement.border_currents``, I_C = Z_C^-1 (V_C - Z_B I_A).

The residual identity.  Let I_A solve S_A I_A = b~ approximately, with
b~ = V_A - Z_B^T Z_C^-1 V_C, and let I_C = Z_C^-1 (V_C - Z_B I_A).  Then
the bordered residual of [I_A; I_C] is

    r_C = V_C - Z_B I_A - Z_C I_C = 0,
    r_A = V_A - Z_A I_A - Z_B^T I_C = b~ - S_A I_A,

so the residual of the reduced system is the bordered system's true
residual, up to the rounding of Z_C^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..numerics import as_columns, inverse
from ..toeplitz import SpectralOperator, matvec, precompute_spectral
from .schur import RHS_PANEL

__all__ = ["BorderedOperator", "SchurComplement", "bordered_matvec", "schur_matvec"]


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
    """[Z_A x_A + Z_B^T x_C ; Z_B x_A + Z_C x_C] for an (op.dim, columns) block, in one output array."""
    arr = as_columns(x, op.dim)
    xa, xc = arr[: op.array_dim], arr[op.array_dim :]
    out = np.empty(arr.shape, dtype=np.result_type(op.spectral.diag_blocks, arr))
    top, bottom = out[: op.array_dim], out[op.array_dim :]
    top[...] = matvec(op.spectral, xa)
    top += op.zb.T @ xc
    np.matmul(op.zb, xa, out=bottom)
    bottom += op.zc @ xc
    return out


@dataclass(frozen=True, eq=False)
class SchurComplement:
    """Matrix-free S_A = Z_A - Z_B^T Z_C^-1 Z_B, the array block with the border eliminated.

    ``za`` is Z_A's spectral operator, or a dense (array_dim, array_dim)
    block; ``zc_inverse`` is Z_C^-1, which ``from_system`` forms, the one
    place a solver inverts Z_C.
    """

    za: SpectralOperator | np.ndarray
    zb: np.ndarray  # (nb, array_dim)
    zc_inverse: np.ndarray  # (nb, nb)

    def __post_init__(self):
        nb = self.zc_inverse.shape[0]
        if self.zb.shape != (nb, self.array_dim) or self.zc_inverse.shape != (nb, nb):
            raise ShapeError(
                f"border shapes {self.zb.shape}/{self.zc_inverse.shape} inconsistent with "
                f"array dim {self.array_dim}"
            )

    @classmethod
    def from_system(cls, sys, za=None) -> "SchurComplement":
        """S_A of the system: Z_C^-1 by ``numerics.inverse``; Z_A is ``za``, else its spectral operator."""
        return cls(precompute_spectral(sys.gen) if za is None else za, sys.zb, inverse(sys.zc))

    @property
    def array_dim(self) -> int:
        return self.za.dim if isinstance(self.za, SpectralOperator) else self.za.shape[0]

    def reduced_rhs(self, v: np.ndarray, x: np.ndarray, v_norms: np.ndarray) -> float:
        """Write b~ into the array rows of ``x`` and return the factor for GMRES's tol.

        ``v`` and ``x`` are (dim, columns) blocks, and ``v_norms`` holds V's
        column norms, read before anything is written.  b~ is formed
        ``RHS_PANEL`` columns at a time.  When V_C = 0 it is V_A, copied with
        no product, and not even copied when ``x`` is ``v``; the factor is
        then exactly 1.  Else it is min(1, min_j ||V_j|| / ||b~_j||) over
        the columns with b~_j != 0.
        """
        adim = self.array_dim
        if v[adim:].any():
            for cols in (slice(c, c + RHS_PANEL) for c in range(0, v.shape[1], RHS_PANEL)):
                x[:adim, cols] = v[:adim, cols] - self.zb.T @ (self.zc_inverse @ v[adim:, cols])
            b_norms = np.linalg.norm(x[:adim], axis=0)
            live = b_norms > 0.0
            return float((v_norms[live] / b_norms[live]).min(initial=1.0))
        if x is not v:
            x[:adim] = v[:adim]
        return 1.0

    def border_currents(self, v: np.ndarray, x: np.ndarray) -> None:
        """Write I_C = Z_C^-1 (V_C - Z_B I_A) into the border rows of ``x``, whose array rows hold I_A."""
        x[self.array_dim :] = self.zc_inverse @ (v[self.array_dim :] - self.zb @ x[: self.array_dim])


def schur_matvec(s: SchurComplement, u) -> np.ndarray:
    """Z_A u - Z_B^T (Z_C^-1 (Z_B u)) for an (s.array_dim, columns) block: an nb^2 and two border GEMMs."""
    arr = as_columns(u, s.array_dim)
    out = matvec(s.za, arr) if isinstance(s.za, SpectralOperator) else s.za @ arr
    if s.zb.shape[0]:
        out -= s.zb.T @ (s.zc_inverse @ (s.zb @ arr))
    return out

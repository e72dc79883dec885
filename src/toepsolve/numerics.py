"""Double-precision complex block arithmetic used by every solver layer.

A *block* is a plain 2-D ``numpy`` array of ``complex128`` in row-major
(C) order.  The helpers here add the shape/singularity contracts the
solvers rely on; the heavy lifting is LAPACK via ``scipy.linalg``.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, ShapeError, SingularMatrix

__all__ = ["LUFactors", "as_block", "lu_factor", "lu_solve"]

# Pivots below this magnitude are treated as exact zeros.
_PIVOT_TINY = 1e-300


class LUFactors(NamedTuple):
    """Compact PA = LU factors with partial pivoting.

    The tuple layout (combined L/U matrix, pivot indices) matches
    ``scipy.linalg.lu_factor`` so the pair can be fed straight back to
    LAPACK's solve routines.
    """

    lu: np.ndarray
    piv: np.ndarray

    @property
    def side(self) -> int:
        return self.lu.shape[0]


def as_block(a, square: bool = False) -> np.ndarray:
    """Coerce to a C-contiguous complex128 2-D array, validating shape."""
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D block, got ndim={arr.ndim}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square block, got shape {arr.shape}")
    return arr


def lu_factor(a) -> LUFactors:
    """LU-factor a square block with partial (row) pivoting.

    Raises SingularMatrix if any pivot is (numerically) zero, i.e. below
    1e-300 in magnitude.
    """
    arr = as_block(a, square=True)
    if arr.size and not np.isfinite(arr.view(np.float64)).all():
        raise ShapeError("block contains non-finite entries")
    with warnings.catch_warnings():
        # scipy warns instead of raising on exact zero pivots; we check below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(arr, check_finite=False)
    if lu.size and np.abs(np.diagonal(lu)).min() < _PIVOT_TINY:
        raise SingularMatrix(f"zero pivot while factorizing a {arr.shape[0]}x{arr.shape[1]} block")
    return LUFactors(lu, piv)


def lu_solve(f: LUFactors, rhs, adjoint: bool = False) -> np.ndarray:
    """Back-substitute A·X = RHS (or Aᴴ·X = RHS) for one or many columns."""
    arr = np.asarray(rhs, dtype=np.complex128)
    vector = arr.ndim == 1
    if vector:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"rhs must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[0] != f.side:
        raise DimensionMismatch(f"factor side {f.side} != rhs rows {arr.shape[0]}")
    x = scipy.linalg.lu_solve((f.lu, f.piv), arr, trans=2 if adjoint else 0, check_finite=False)
    return x[:, 0] if vector else x

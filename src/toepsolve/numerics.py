"""Complex block arithmetic used by every solver layer.

A block is a 2-D array of columns, complex128, or complex64 on the
operator copies ``astype`` forms for GMRES's single-precision basis.
The operators (``toeplitz.matvec``, ``bordered_matvec`` and
``Preconditioner.apply``) compute as numpy's matmul does: in
``np.result_type`` of the arrays they hold and the block they get, and
they return that dtype.  GMRES alone rounds an operator's output to its
basis dtype.  The LU helpers add the solvers' shape and singularity
contracts to LAPACK, via ``scipy.linalg``.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, ShapeError, SingularMatrix

__all__ = ["LUFactors", "as_columns", "astype", "lu_factor", "lu_solve"]

# pivots below this magnitude count as exact zeros: an underflow guard that no PR has tuned
_PIVOT_TINY = 1e-300


class LUFactors(NamedTuple):
    """Compact PA = LU factors, laid out as ``scipy.linalg.lu_factor``'s pair for LAPACK's solves."""

    lu: np.ndarray
    piv: np.ndarray

    @property
    def side(self) -> int:
        return self.lu.shape[0]


def as_columns(a, rows: int) -> np.ndarray:
    """View a (rows, k) column block as complex64 or complex128; there is no 1-D form.

    complex64 and complex128 inputs are returned without a copy, and any
    other becomes complex128.  Raises ShapeError unless the input is 2-D and
    DimensionMismatch unless it has ``rows`` rows.
    """
    arr = np.asarray(a)
    if arr.dtype != np.complex64:
        arr = np.asarray(arr, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D column block, got ndim={arr.ndim}")
    if arr.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {arr.shape[0]}")
    return arr


def astype(obj, dtype):
    """The dataclass ``obj`` with its array fields, nested ones too, cast to ``dtype`` where they differ."""
    cast = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            cast[f.name] = value.astype(dtype, copy=False)
        elif dataclasses.is_dataclass(value):
            cast[f.name] = astype(value, dtype)
    return dataclasses.replace(obj, **cast)


def lu_factor(a) -> LUFactors:
    """LU-factor a square block, as complex128, with partial (row) pivoting.

    Raises ShapeError unless the block is 2-D, square and finite, and
    SingularMatrix if a pivot is below ``_PIVOT_TINY`` in magnitude.  A 0x0
    block, an empty border's self block, is its own factor, without LAPACK.
    """
    # checked before the copy, which turns a 0-d input into a 1-d one
    if (ndim := np.ndim(a)) != 2:
        raise ShapeError(f"expected a 2-D block, got ndim={ndim}")
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square block, got shape {arr.shape}")
    if not arr.size:
        return LUFactors(arr, np.zeros(0, dtype=np.int32))
    if not np.isfinite(arr.view(np.float64)).all():
        raise ShapeError("block contains non-finite entries")
    with warnings.catch_warnings():
        # scipy warns instead of raising on exact zero pivots; we check below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(arr, check_finite=False)
    if np.abs(np.diagonal(lu)).min() < _PIVOT_TINY:
        raise SingularMatrix(f"zero pivot while factorizing a {arr.shape[0]}x{arr.shape[1]} block")
    return LUFactors(lu, piv)


def lu_solve(f: LUFactors, rhs) -> np.ndarray:
    """Back-substitute A·X = RHS for a 2-D block of columns; a 0x0 A gives a (0, k) block."""
    arr = as_columns(rhs, f.side)
    if not f.side:
        return np.empty(arr.shape, dtype=np.complex128)
    return scipy.linalg.lu_solve((f.lu, f.piv), arr, check_finite=False)

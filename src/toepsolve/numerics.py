"""Complex block arithmetic used by every solver layer.

A *block* is a plain 2-D ``numpy`` array of ``complex128`` in row-major
(C) order.  A column block handed to an operator may also be
``complex64``: GMRES runs its Krylov basis in single precision at loose
tolerances, on complex64 copies of the operators that ``astype`` forms.

The operators (``toeplitz.matvec``, ``bordered_matvec`` and
``Preconditioner.apply``) compute as numpy's matmul does: in
``np.result_type`` of the arrays they hold and the block they get, and
they return that dtype.  So a complex64 block runs in complex64 only on
a complex64 copy; on a complex128 operator it is computed, and returned,
in complex128.  GMRES alone rounds an operator's output to its basis
dtype.

The helpers here add the shape/singularity contracts the solvers rely
on; the heavy lifting is LAPACK via ``scipy.linalg``.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, ShapeError, SingularMatrix

__all__ = ["LUFactors", "as_block", "as_columns", "astype", "lu_factor", "lu_solve"]

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


def as_columns(a, rows: int) -> np.ndarray:
    """View a (rows, k) column block as complex64 or complex128; there is no 1-D form.

    A complex64 block stays complex64 and anything else becomes
    complex128.  Raises ShapeError unless the input is 2-D and
    DimensionMismatch unless it has ``rows`` rows.  A complex64 or
    complex128 input is returned without a copy.
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
    """LU-factor a square block with partial (row) pivoting.

    Raises SingularMatrix if any pivot is (numerically) zero, i.e. below
    1e-300 in magnitude.  A 0x0 block, the self block of an empty border,
    is returned as its own factor without a LAPACK call.
    """
    arr = as_block(a, square=True)
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

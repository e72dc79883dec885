"""Border elimination: solve the bordered system through its Schur complement.

The structured block is inverted exactly once, against the excitations
and the border coupling jointly:

    Z_A [U  F] = [V_A  Z_B^T]

after which the border currents follow from the small reduced system
(Z_C - Z_B F) I_C = V_C - Z_B U and the array currents from
I_A = U - F I_C.  Z_A is inverted by the block bordering (Rybicki)
recursion on its assembled level-1 blocks.  For an empty border this
degenerates to the recursion alone.
"""

from __future__ import annotations

import time

import numpy as np

from .. import numerics
from ..errors import SingularMatrix, SingularSchurComplement
from ..problems import BorderedSystem
from .gmres import SolveReport
from .rybicki import assemble_level1, rybicki_solve, wide_stack_bytes

__all__ = ["schur_solve"]

_BYTES_PER_SCALAR = 16


def schur_solve(sys: BorderedSystem, v) -> tuple[np.ndarray, SolveReport]:
    """Solve Z I = V for every column of the 2-D (dim, columns) block ``v``.

    The level-1 assembly is part of the solve and has its own timing.
    """
    v = numerics.as_columns(v, sys.dim)

    report = SolveReport(method="schur-rybicki")
    report.memory_estimate["generator"] = sys.gen.stored_scalars * _BYTES_PER_SCALAR
    timings = report.phase_timings
    t_start = time.perf_counter()

    va, vc = v[: sys.array_dim], v[sys.array_dim :]
    ncols = v.shape[1]
    rhs = np.hstack([va, sys.zb.T]) if sys.nb else va

    t0 = time.perf_counter()
    level1 = assemble_level1(sys.gen)
    timings["level1_fill"] = time.perf_counter() - t0
    report.memory_estimate["level1"] = level1.size * _BYTES_PER_SCALAR
    report.memory_estimate["level1_wide"] = wide_stack_bytes(level1)
    t0 = time.perf_counter()
    uf = rybicki_solve(level1, rhs)
    timings["recursion"] = time.perf_counter() - t0

    if sys.nb:
        u, f = uf[:, :ncols], uf[:, ncols:]
        try:
            lu_s = numerics.lu_factor(sys.zc - sys.zb @ f)
        except SingularMatrix as exc:
            raise SingularSchurComplement("reduced border operator is singular") from exc
        ic = numerics.lu_solve(lu_s, vc - sys.zb @ u)
        ia = u - f @ ic
        solution = np.vstack([ia, ic])
    else:
        solution = uf

    timings["total"] = time.perf_counter() - t_start
    return solution, report

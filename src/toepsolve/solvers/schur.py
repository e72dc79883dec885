"""Border elimination: solve the bordered system through its Schur complement.

The structured block is inverted exactly once, against the excitations
and the border coupling jointly:

    Z_A [U  F] = [V_A  Z_B^T]

after which the border currents follow from the small reduced system
(Z_C - Z_B F) I_C = V_C - Z_B U and the array currents from
I_A = U - F I_C.  For an empty border this degenerates to the inner
solve alone.
"""

from __future__ import annotations

import time

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularMatrix, SingularSchurComplement
from ..problems import BorderedSystem, ExcitationSet
from ..toeplitz import assemble_dense
from .gmres import SolveReport
from .rybicki import assemble_level1, rybicki_solve, wide_stack_bytes

__all__ = ["schur_solve"]

_BYTES_PER_SCALAR = 16


def schur_solve(sys: BorderedSystem, excitations, inner: str = "rybicki") -> tuple[np.ndarray, SolveReport]:
    """Solve Z I = V for all excitation columns with a direct inner solver.

    ``inner`` selects how the structured block is inverted: "rybicki"
    runs the block bordering recursion on the assembled level-1 blocks
    (the assembly time is part of the solve, mirrored in the timings);
    "dense" assembles the structured block and LU-factors it (oracle
    path, no size cap here since the border solve needs only the
    structured dimension).
    """
    v = excitations.matrix if isinstance(excitations, ExcitationSet) else np.asarray(excitations)
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != sys.dim:
        raise ShapeError(f"excitation shape {v.shape} incompatible with system dim {sys.dim}")
    if inner not in ("rybicki", "dense"):
        raise ValueError(f"unknown inner solver {inner!r}")

    report = SolveReport(method=f"schur-{inner}")
    report.memory_estimate["generator"] = sys.gen.stored_scalars * _BYTES_PER_SCALAR
    timings = report.phase_timings
    t_start = time.perf_counter()

    va, vc = v[: sys.array_dim], v[sys.array_dim :]
    ncols = v.shape[1]
    rhs = np.hstack([va, sys.zb.T]) if sys.nb else va

    if inner == "rybicki":
        t0 = time.perf_counter()
        level1 = assemble_level1(sys.gen)
        timings["level1_fill"] = time.perf_counter() - t0
        report.memory_estimate["level1"] = level1.size * _BYTES_PER_SCALAR
        report.memory_estimate["level1_wide"] = wide_stack_bytes(level1)
        t0 = time.perf_counter()
        uf = rybicki_solve(level1, rhs)
        timings["recursion"] = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        za = assemble_dense(sys.gen)
        uf = numerics.lu_solve(numerics.lu_factor(za), rhs)
        timings["dense_solve"] = time.perf_counter() - t0

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

"""Border elimination: solve the bordered system through its Schur complement.

Z_A is inverted once, by the Rybicki recursion on its level-1 blocks,
against the excitations and the border coupling jointly:
Z_A [U  F] = [V_A  Z_B^T], solved in place in the block that stacks
them.  The border currents then solve the small reduced system
(Z_C - Z_B F) I_C = V_C - Z_B U, and I_A = U - F I_C is written into the
one solution array ``RHS_PANEL`` columns at a time, so the elimination
forms no temporary wider than a panel.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .. import numerics
from ..errors import SingularMatrix, SingularSchurComplement
from ..problems import BorderedSystem
from .rybicki import assemble_level1, rybicki_solve

__all__ = ["schur_solve", "SchurReport", "RHS_PANEL"]

# columns of I_A per border-elimination step, which bounds its temporaries (PR 15; no width was timed)
RHS_PANEL = 64


class SchurReport(NamedTuple):
    """The seconds of a solve's ``phases`` and the bytes of what it holds (see ``schur_solve``)."""

    phases: dict[str, float]
    memory: dict[str, int]


def schur_solve(sys: BorderedSystem, v) -> tuple[np.ndarray, SchurReport]:
    """Solve Z I = V for every column of the 2-D (dim, columns) block ``v``.

    Returns the solution and a ``SchurReport`` of the seconds of
    ``level1_fill`` and ``recursion`` (the caller times the rest: stacking
    and border elimination) and the bytes of ``level1`` (the 2N-1 level-1
    blocks, N = n2), ``rhs`` ([V_A  Z_B^T]) and ``stacks`` (G and H).
    """
    v = numerics.as_columns(v, sys.dim)
    adim = sys.array_dim
    va, vc = v[:adim], v[adim:]
    ncols = v.shape[1]
    # a new block: the recursion overwrites it, and va is a view of v
    rhs = np.hstack([va, sys.zb.T])

    t0 = time.perf_counter()
    level1 = assemble_level1(sys.gen)
    t1 = time.perf_counter()
    uf = rybicki_solve(level1, rhs)
    t2 = time.perf_counter()
    # G and H hold 2(N-1) blocks of the level-1 side
    memory = {"level1": level1.nbytes, "rhs": rhs.nbytes, "stacks": (len(level1) - 1) * level1[0].nbytes}
    del level1  # freed before the solution is allocated

    u, f = uf[:, :ncols], uf[:, ncols:]
    try:
        lu_s = numerics.lu_factor(sys.zc - sys.zb @ f)
    except SingularMatrix as exc:
        raise SingularSchurComplement("reduced border operator is singular") from exc
    ic = numerics.lu_solve(lu_s, vc - sys.zb @ u)
    solution = np.empty((sys.dim, ncols), dtype=np.complex128)
    solution[adim:] = ic
    for c in range(0, ncols, RHS_PANEL):
        cols = slice(c, c + RHS_PANEL)
        np.subtract(u[:, cols], f @ ic[:, cols], out=solution[:adim, cols])

    return solution, SchurReport({"level1_fill": t1 - t0, "recursion": t2 - t1}, memory)

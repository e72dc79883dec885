"""Border elimination: solve the bordered system through its Schur complement.

The structured block is inverted exactly once, against the excitations
and the border coupling jointly:

    Z_A [U  F] = [V_A  Z_B^T]

after which the border currents follow from the small reduced system
(Z_C - Z_B F) I_C = V_C - Z_B U and the array currents from
I_A = U - F I_C.  Z_A is inverted by the block bordering (Rybicki)
recursion on its assembled level-1 blocks.

The recursion solves [V_A  Z_B^T] in place, in the block that stacks
them, so [U  F] takes no memory of its own.  The solution [I_A; I_C] is
allocated once, and I_A = U - F I_C is written into it one panel of
``RHS_PANEL`` = 64 columns at a time, so the border elimination forms
no temporary wider than a panel.  ``run_method`` sums the record
residual of a rybicki solve over the same panels.

``schur_solve`` reports the bytes it holds: ``level1``, the 2N-1 level-1
blocks (N = n2); ``rhs``, the block [V_A  Z_B^T]; and ``stacks``, the
recursion's G and H, 2(N-1) blocks.  The recursion also holds two block
rows of ``rhs`` and a few blocks, and the border elimination ``rhs``,
the solution and one panel.
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

# columns of I_A that one step of the border elimination forms
RHS_PANEL = 64


class SchurReport(NamedTuple):
    """The seconds of a solve's ``phases`` and the bytes of what it holds (module docstring)."""

    phases: dict[str, float]
    memory: dict[str, int]


def schur_solve(sys: BorderedSystem, v) -> tuple[np.ndarray, SchurReport]:
    """Solve Z I = V for every column of the 2-D (dim, columns) block ``v``.

    Returns the solution and a ``SchurReport`` of the bytes it holds and
    the seconds of ``level1_fill`` (the level-1 assembly) and ``recursion``
    (the Rybicki solve); the rest of the call, stacking the right-hand
    sides and eliminating the border, is left for the caller to time.
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

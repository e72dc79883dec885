"""Border elimination: solve the bordered system through its Schur complement.

Z_A is inverted once, by the Rybicki recursion on its level-1 blocks,
against the border coupling and the excitations jointly:
Z_A [U  F] = [V_A  Z_B^T].  The border currents then solve the small
reduced system (Z_C - Z_B F) I_C = V_C - Z_B U, and I_A = U - F I_C is
written into the solution array ``RHS_PANEL`` columns at a time, so the
elimination forms no temporary wider than a panel.

Each solve takes one of two routes.  On the feed route, Z_A = Z_A^T
bitwise (R_-k = R_k^T, as ``generate`` and a TBZ round trip give) and
every column of V_A has at most one nonzero, alpha e_p.  Only Z_B^T rides
the recursion, and each column of U is alpha times column p of Z_A^-1,
formed by ``rybicki.inverse_columns`` from the end block columns the
recursion returns (the identity it uses is stated there).  The same
symmetry gives Z_B U without a product: Z_B Z_A^-1 = (Z_A^-1 Z_B^T)^T =
F^T, so the column of alpha e_p is alpha times row p of F.  Any other
block takes the recursion route: all of V_A rides the recursion beside
Z_B^T, solved in place in the block that stacks them, and Z_B U is a
product.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularMatrix, SingularSchurComplement
from ..problems import BorderedSystem
from .rybicki import assemble_level1, inverse_columns, rybicki_solve

__all__ = ["schur_solve", "SchurReport", "RHS_PANEL"]

# columns per step of the I_A update and of run_method's record residual, which bounds their
# temporaries (PR 15; no width was timed)
RHS_PANEL = 64


class SchurReport(NamedTuple):
    """A solve's ``phases`` (seconds), ``memory`` (bytes it holds) and ``counts`` (see ``schur_solve``)."""

    phases: dict[str, float]
    memory: dict[str, int]
    counts: dict[str, int]


def schur_solve(sys: BorderedSystem, v) -> tuple[np.ndarray, SchurReport]:
    """Solve Z I = V for every column of the 2-D (dim, columns) block ``v``.

    Returns the solution and a ``SchurReport`` of the seconds of
    ``level1_fill``, ``recursion`` and, on the feed route,
    ``inverse_columns`` (the caller times the rest: routing, stacking and
    border elimination) and the bytes of ``level1`` (the 2N-1 level-1
    blocks, N = n2), ``rhs`` (Z_B^T, beside V_A on the recursion route)
    and ``stacks`` (G and H, which end as the end block columns: 2N
    blocks), and the ``counts`` of the recursion's ``recursion_steps``
    (N - 1) and ``recursion_columns`` (nb, plus the block's columns on
    the recursion route).  A ``v`` with inf or NaN raises ShapeError
    before anything is allocated.

    The solution is allocated first.  When the level-1 blocks are no
    larger, they are assembled in its leading bytes: they are dead once
    the recursion returns, before the first solution entry is written, so
    the solution's writes land on pages the blocks already made resident
    and the solve holds rhs, the stacks and the solution at its peak.  A
    larger level-1 array, as a solve of a few columns has, stays an array
    of its own and is freed after the recursion, so the returned block
    never pins a level-1-sized buffer.
    """
    v = numerics.as_columns(v, sys.dim)
    if not np.isfinite(v).all():
        raise ShapeError("right-hand side block holds inf or NaN")
    adim = sys.array_dim
    va, vc = v[:adim], v[adim:]
    ncols = v.shape[1]
    phases = {}

    solution = np.empty((sys.dim, ncols), dtype=np.complex128)
    level1_size = (2 * sys.gen.n2 - 1) * (sys.gen.n1 * sys.gen.n0) ** 2
    workspace = solution.reshape(-1)[:level1_size] if level1_size <= solution.size else None
    t0 = time.perf_counter()
    level1 = assemble_level1(sys.gen, out=workspace)
    phases["level1_fill"] = time.perf_counter() - t0
    nonzero = va != 0
    feed = ((np.count_nonzero(nonzero, axis=0) <= 1).all()
            and np.array_equal(level1[::-1], level1.transpose(0, 2, 1)))
    if feed:
        # each column is alpha e_p; a zero column reads row 0, scaled by 0
        rows = np.argmax(nonzero, axis=0)
        alpha = va[rows, np.arange(ncols)]
    del nonzero
    # a new block: the recursion overwrites it, and va is a view of v
    rhs = np.hstack([va[:, : 0 if feed else ncols], sys.zb.T])

    t0 = time.perf_counter()
    uf, ends = rybicki_solve(level1, rhs)
    phases["recursion"] = time.perf_counter() - t0
    memory = {"level1": level1.nbytes, "rhs": rhs.nbytes, "stacks": ends.first.nbytes + ends.last.nbytes}
    counts = {"recursion_steps": sys.gen.n2 - 1, "recursion_columns": rhs.shape[1]}
    del level1  # dead from here: the solution may be written over it

    if feed:
        u, f = solution[:adim], uf
        t0 = time.perf_counter()
        inverse_columns(ends, rows, alpha, u)
        phases["inverse_columns"] = time.perf_counter() - t0
    else:
        u, f = uf[:, :ncols], uf[:, ncols:]
    del ends  # freed before the border elimination
    try:
        lu_s = numerics.lu_factor(sys.zc - sys.zb @ f)
    except SingularMatrix as exc:
        raise SingularSchurComplement("reduced border operator is singular") from exc
    # on the feed route, Z_B U is a row of F per column (see the module docstring)
    zb_u = f[rows].T * alpha if feed else sys.zb @ u
    ic = numerics.lu_solve(lu_s, vc - zb_u)
    solution[adim:] = ic
    for c in range(0, ncols, RHS_PANEL):
        cols = slice(c, c + RHS_PANEL)
        np.subtract(u[:, cols], f @ ic[:, cols], out=solution[:adim, cols])

    return solution, SchurReport(phases, memory, counts)


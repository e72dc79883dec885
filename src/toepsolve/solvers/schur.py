"""Border elimination: solve the bordered system through its Schur complement.

Z_A is inverted once, by the Rybicki recursion on its level-1 blocks,
against the border coupling and the excitations jointly:
Z_A [U  F] = [V_A  Z_B^T], solved in place in the block that stacks
them.  The border currents then solve the small reduced system
(Z_C - Z_B F) I_C = V_C - Z_B U, and I_A = U - F I_C is written over U in
the solution array ``RHS_PANEL`` columns at a time, so the elimination
forms no temporary wider than a panel.

A feed excitation skips the recursion.  When Z_A = Z_A^T bitwise (R_-k =
R_k^T, as ``generate`` and a TBZ round trip give), a column of V_A with at
most one nonzero, alpha e_p, is solved as alpha times column p of
Z_A^-1.  The recursion's final stage returns the first and last block
columns of Z_A^-1, X and Y, and by the block Gohberg-Heinig displacement
identity (Gohberg & Heinig, Rev. Roumaine Math. Pures Appl. 19, 1974)
they fix its other blocks:

    B_{i,j} = B_{i-1,j-1} + X_i X_0^-1 X_j^T - Y_{i-1} Y_{N-1}^-1 Y_{j-1}^T

from B_{i,0} = X_i and B_{0,j} = X_j^T, where X_0^-1 = -D2 and
Y_{N-1}^-1 = -D1 are the recursion's final denominators, applied as
products, not re-inverted.  Walked one block column at a time,
restricted to the in-block positions Q the feeds use, each block column
costs two (N*side, side) @ (side, |Q|) products.  Any other input keeps
every column in the recursion, since the identity then needs the end
block rows as well.  The same symmetry gives the feed columns of Z_B U
without a product: Z_B Z_A^-1 = (Z_A^-1 Z_B^T)^T = F^T, so the column of
alpha e_p is alpha times row p of F.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .. import numerics
from ..errors import SingularMatrix, SingularSchurComplement
from ..problems import BorderedSystem
from .rybicki import EndColumns, assemble_level1, rybicki_solve

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
    ``level1_fill``, ``recursion`` and, when a column was solved from the
    inverse's columns, ``inverse_columns`` (the caller times the rest:
    routing, stacking and border elimination) and the bytes of
    ``level1`` (the 2N-1 level-1 blocks, N = n2), ``rhs`` (Z_B^T and the
    columns of V_A that ride the recursion) and ``stacks`` (G and H,
    which end as X and Y: 2N blocks).

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
    unit = np.count_nonzero(nonzero, axis=0) <= 1
    if unit.any() and not np.array_equal(level1[::-1], level1.transpose(0, 2, 1)):
        unit[:] = False
    feeds, dense = np.flatnonzero(unit), np.flatnonzero(~unit)
    # each feed column is alpha e_p; a zero column reads row 0, scaled by 0
    rows = np.argmax(nonzero, axis=0)[feeds]
    alpha = va[rows, feeds]
    del nonzero
    # a new block: the recursion overwrites it, and va is a view of v; its columns
    # are gathered a panel at a time
    rhs = np.empty((adim, dense.size + sys.nb), dtype=np.complex128)
    rhs[:, dense.size :] = sys.zb.T
    va_dense = rhs[:, : dense.size]
    for c in range(0, dense.size, RHS_PANEL):
        va_dense[:, c : c + RHS_PANEL] = va[:, dense[c : c + RHS_PANEL]]

    t0 = time.perf_counter()
    uf, ends = rybicki_solve(level1, rhs)
    phases["recursion"] = time.perf_counter() - t0
    # G and H hold 2N blocks of the level-1 side
    memory = {"level1": level1.nbytes, "rhs": rhs.nbytes, "stacks": (len(level1) + 1) * level1[0].nbytes}
    del level1  # dead from here: the solution may be written over it

    u, u_dense, f = solution[:adim], uf[:, : dense.size], uf[:, dense.size :]
    u[:, dense] = u_dense
    if feeds.size:
        t0 = time.perf_counter()
        _inverse_columns(ends, rows, alpha, feeds, u)
        phases["inverse_columns"] = time.perf_counter() - t0
    del ends  # freed before the border elimination
    try:
        lu_s = numerics.lu_factor(sys.zc - sys.zb @ f)
    except SingularMatrix as exc:
        raise SingularSchurComplement("reduced border operator is singular") from exc
    # Z_B U: a feed column is a row of F (see the module docstring), and the dense
    # columns are read from the recursion's block, where they lie side by side
    zb_u = np.empty((sys.nb, ncols), dtype=np.complex128)
    zb_u[:, feeds] = f[rows].T * alpha
    for c in range(0, dense.size, RHS_PANEL):
        zb_u[:, dense[c : c + RHS_PANEL]] = sys.zb @ u_dense[:, c : c + RHS_PANEL]
    ic = numerics.lu_solve(lu_s, vc - zb_u)
    solution[adim:] = ic
    for c in range(0, ncols, RHS_PANEL):
        cols = slice(c, c + RHS_PANEL)
        u[:, cols] -= f @ ic[:, cols]

    return solution, SchurReport(phases, memory)


def _inverse_columns(ends: EndColumns, rows: np.ndarray, alpha: np.ndarray, cols: np.ndarray,
                     out: np.ndarray) -> None:
    """Write ``alpha[i]`` times column ``rows[i]`` of Z_A^-1 into ``out[:, cols[i]]``, for every i.

    The block columns of Z_A^-1 are walked from the first by the
    displacement recurrence, each restricted to the in-block positions
    the columns use, up to the last block any column lies in.
    """
    x, y, d1, d2 = ends
    n, side = x.shape[:2]
    block, pos = np.divmod(rows, side)
    q, qi = np.unique(pos, return_inverse=True)

    def times(d, e):
        """d e_j^T on the columns Q, as (side, N, |Q|)."""
        return (d @ e[:, q].transpose(2, 0, 1).reshape(side, n * q.size)).reshape(side, n, q.size)

    # X_i X_0^-1 X_j^T = -X_i D2 X_j^T and Y_{i-1} Y_{N-1}^-1 Y_{j-1}^T = -Y_{i-1} D1 Y_{j-1}^T
    px, py = times(d2, x), times(d1, y)
    xs = x[1:].reshape((n - 1) * side, side)  # X_1 .. X_{N-1}
    ys = y[:-1].reshape((n - 1) * side, side)  # Y_0 .. Y_{N-2}
    col = x[:, :, q].reshape(n * side, q.size)  # B_{i,0} = X_i
    for j in range(block.max() + 1):
        if j:
            prev, col = col, np.empty_like(col)
            col[:side] = x[j, q].T  # B_{0,j} = X_j^T
            np.matmul(ys, py[:, j - 1], out=col[side:])
            col[side:] += prev[:-side]
            col[side:] -= xs @ px[:, j]
        hit = block == j
        out[:, cols[hit]] = col[:, qi[hit]] * alpha[hit]

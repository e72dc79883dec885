"""Direct block-Toeplitz solver by a bordering (Rybicki-type) recursion.

The recursion grows the solved leading subsystem one block row per step,
as the scalar algorithm does, keeping the block products in matrix
order.  With x, G, H the solution and generator blocks at stage M, the
step to stage M+1 is

    x_{M+1} = D1^-1 (sum_j R_{M+1-j} x_j - y_{M+1})
    x_j    -= G_{M+1-j} x_{M+1}
    G_{M+1} = D2^-1 (sum_j R_{j-M-1} G_j - R_{-M-1})
    H_{M+1} = D1^-1 (sum_j R_{M+1-j} H_j - R_{M+1})
    G_j    -= H_{M+1-j} G_{M+1},   H_j -= G_{M+1-j} H_{M+1}

with D1 = sum_i R_i G_i - R_0 and D2 = sum_i R_{-i} H_i - R_0 (sums over
the current stage, updates from stage-M values), each LU-factored once
per step.  The base stage is the same step from empty sums, D1 = D2 = -R_0.

Every stage sum is one level-3 BLAS product on the coefficients as
stored: in ``assemble_level1``'s row [R_{N-1} ... R_0 ... R_-(N-1)],
block row i of the matrix is the window from column (N-1-i)*side, and
the stacks of x, H and (reversed) G are contiguous.  The solve runs in
place: x_{M+1} overwrites y_{M+1}, which only its own numerator reads,
and the updates go one block row x_j, or one pair G_j, H_{M+1-j}, at a
time, in contiguous rows that need no iterator buffers (PR 15).  Beside
the right-hand side and the coefficients the solve holds the G and H
stacks, 2N blocks, two block rows of the right-hand side and about a
dozen blocks.  Its output is bitwise deterministic, and a singular
denominator aborts it with a diagnostic.

The final stage, M = N-1, also gives the first and last block columns of
the inverse, X and Y.  With D1 and D2 formed from the final stacks,

    X_0 = -D2^-1,      X_j = H_j D2^-1
    Y_{N-1} = -D1^-1,  Y_j = G_{N-1-j} D1^-1

each written over the stack block it is formed from: X_j over H_j and
Y_j over G_{N-1-j}, with X_0 and Y_{N-1} in the stacks' one spare block
each.  That costs one more D2 and 2N block products, and no columns.
Every solve returns them, with D1 and D2, the inverses of -Y_{N-1} and
-X_0, and ``inverse_columns`` forms any column of the inverse from them
when the matrix is symmetric.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularBlock, SingularDenominator, SingularMatrix
from ..toeplitz import BlockGenerator2L, assemble_dense_1l

__all__ = ["rybicki_solve", "assemble_level1", "EndColumns", "inverse_columns"]


class EndColumns(NamedTuple):
    """The first and last block columns of the inverse, each an (N, side, side) stack.

    ``first[i]`` is block (i, 0) of the inverse, X_i, and ``last[i]`` is
    block (i, N-1), Y_i.  ``d1`` and ``d2`` are the final stage's
    denominators: X_0 = -d2^-1 and Y_{N-1} = -d1^-1.
    """

    first: np.ndarray
    last: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def assemble_level1(gen: BlockGenerator2L, out: np.ndarray | None = None) -> np.ndarray:
    """The level-1 blocks of a 2-level generator, of side n1*n0, side by side.

    Each block is written once into one C-contiguous (side, (2*n2-1)*side)
    row [R_{n2-1} ... R_0 ... R_-(n2-1)], returned as a (2*n2-1, side, side)
    view with ``blocks[k]`` = R_{n2-1-k}.  The row is a new array, or, with
    ``out``, the bytes of ``out``: a C-contiguous complex128 array of
    exactly (2*n2-1)*side**2 scalars, of any shape, which the returned view
    shares.  Any other ``out`` raises ShapeError.
    """
    n, side = gen.n2, gen.n1 * gen.n0
    shape = (side, (2 * n - 1) * side)
    if out is None:
        row = np.empty(shape, dtype=np.complex128)
    elif out.dtype == np.complex128 and out.flags.c_contiguous and out.size == shape[0] * shape[1]:
        row = out.reshape(shape)
    else:
        raise ShapeError(f"out must be C-contiguous complex128 of {shape[0] * shape[1]} scalars, "
                         f"got {out.dtype} {out.shape}")
    for k in range(2 * n - 1):
        row[:, k * side : (k + 1) * side] = assemble_dense_1l(gen.blocks[(n - 1 - k) % (2 * n - 1)])
    return row.reshape(side, 2 * n - 1, side).transpose(1, 0, 2)


def rybicki_solve(blocks: np.ndarray, y) -> tuple[np.ndarray, EndColumns]:
    """Solve the block-Toeplitz system generated by ``blocks``, overwriting ``y``.

    ``blocks[k]`` = R_{N-1-k}: the 2*N-1 square blocks in decreasing offset
    order, as ``assemble_level1`` returns them (its array is read as a view,
    any other as a copy), so block (i, j) of the matrix is
    ``blocks[N-1-i+j]``.  ``y`` is the stacked (N*side, columns) right-hand
    side, which may have no columns; a writeable C-contiguous complex128
    ``y`` is overwritten with the solution and returned, and any other is
    copied first and left as it was.  Returns ``(x, EndColumns)``, the end
    block columns written over the G and H stacks.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ShapeError(f"blocks must be (2N-1, side, side), got {blocks.shape}")
    if blocks.shape[0] % 2 == 0:
        raise ShapeError(f"expected an odd number of blocks, got {blocks.shape[0]}")
    n = (blocks.shape[0] + 1) // 2
    side = blocks.shape[1]
    row = blocks.transpose(1, 0, 2).reshape(side, blocks.shape[0] * side)

    x = np.require(numerics.as_columns(y, n * side), np.complex128, ["C", "W"])
    xb = x.reshape(n, side, x.shape[1])  # block row j holds y_j until stage j overwrites it with x_j

    def rb(offset: int) -> np.ndarray:
        return blocks[n - 1 - offset]

    # H_j at h[j] and G_j at g[N-1-j], so every stage-m stack is m contiguous blocks:
    # h[1:m+1] = H_1 .. H_m, g[N-1-m:N-1] = G_m .. G_1; h[0] and g[N-1] are free
    # until the end columns take them
    g = np.empty((n, side, side), dtype=np.complex128)
    h = np.empty_like(g)

    # stage 0 has empty stacks: D1 = D2 = -R_0, so it is the base stage
    for m in range(n):
        span = m * side
        pos = row[:, (n - 1 - m) * side : (n - 1) * side]  # R_m .. R_1
        neg = row[:, n * side : (n + m) * side]            # R_-1 .. R_-m
        gm = g[n - 1 - m : n - 1].reshape(span, side)
        hm = h[1 : m + 1].reshape(span, side)

        d1 = pos @ gm - rb(0)
        try:
            lu1 = numerics.lu_factor(d1)
        except SingularMatrix as exc:
            if m == 0:
                raise SingularBlock("self block R_0 is singular") from exc
            raise SingularDenominator(m) from exc

        num_x = pos @ x[:span]
        num_x -= xb[m]
        xb[m] = numerics.lu_solve(lu1, num_x)
        for j in range(m):
            xb[j] -= g[n - 1 - m + j] @ xb[m]  # G_{m-j} x_m

        d2 = neg @ hm - rb(0)
        try:
            lu2 = numerics.lu_factor(d2)
        except SingularMatrix as exc:
            raise SingularDenominator(m) from exc
        if m < n - 1:
            g_new = numerics.lu_solve(lu2, neg @ gm - rb(-(m + 1)))
            h_new = numerics.lu_solve(lu1, pos @ hm - rb(m + 1))
            # G_j's update reads H_{m+1-j} and H_{m+1-j}'s reads G_j, and no other
            # update reads either, so each pair is updated from its own old values
            for j in range(1, m + 1):
                g_upd = h[m + 1 - j] @ g_new
                h[m + 1 - j] -= g[n - 1 - j] @ h_new
                g[n - 1 - j] -= g_upd
            g[n - 2 - m] = g_new
            h[m + 1] = h_new

    # X_0 = -D2^-1, X_j = H_j D2^-1 and Y_{N-1} = -D1^-1, Y_j = G_{N-1-j} D1^-1,
    # each block overwriting the one it is formed from
    eye = np.eye(side, dtype=np.complex128)
    d1_inv, d2_inv = numerics.lu_solve(lu1, eye), numerics.lu_solve(lu2, eye)
    for j in range(1, n):
        h[j] = h[j] @ d2_inv
        g[n - 1 - j] = g[n - 1 - j] @ d1_inv
    np.negative(d2_inv, out=h[0])
    np.negative(d1_inv, out=g[n - 1])
    return x, EndColumns(h, g, d1, d2)


def inverse_columns(ends: EndColumns, rows: np.ndarray, alpha: np.ndarray, out: np.ndarray) -> None:
    """Write ``alpha[i]`` times column ``rows[i]`` of the inverse B into ``out[:, i]``, for every i.

    The matrix must equal its transpose (R_-k = R_k^T).  Then by the block
    Gohberg-Heinig displacement identity (Gohberg & Heinig, Rev. Roumaine
    Math. Pures Appl. 19, 1974) the end block columns fix every other block:

        B_{i,j} = B_{i-1,j-1} + X_i X_0^-1 X_j^T - Y_{i-1} Y_{N-1}^-1 Y_{j-1}^T

    from B_{i,0} = X_i and B_{0,j} = X_j^T, where X_0^-1 = -D2 and
    Y_{N-1}^-1 = -D1 are applied as products, not re-inverted.  The block
    columns are walked from the first, each restricted to the in-block
    positions Q the columns use, up to the last block any column lies in:
    two (N*side, side) @ (side, |Q|) products a block column.
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
    for j in range(block.max(initial=-1) + 1):
        if j:
            prev, col = col, np.empty_like(col)
            col[:side] = x[j, q].T  # B_{0,j} = X_j^T
            np.matmul(ys, py[:, j - 1], out=col[side:])
            col[side:] += prev[:-side]
            col[side:] -= xs @ px[:, j]
        hit = block == j
        out[:, hit] = col[:, qi[hit]] * alpha[hit]

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
stacks, 2(N-1) blocks, two block rows of the right-hand side and about
a dozen blocks.  Its output is bitwise deterministic, and a singular
denominator aborts it with a diagnostic.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularBlock, SingularDenominator, SingularMatrix
from ..toeplitz import BlockGenerator2L, assemble_dense_1l

__all__ = ["rybicki_solve", "assemble_level1"]


def assemble_level1(gen: BlockGenerator2L) -> np.ndarray:
    """The level-1 blocks of a 2-level generator, of side n1*n0, side by side.

    Each block is written once into one C-contiguous (side, (2*n2-1)*side)
    row [R_{n2-1} ... R_0 ... R_-(n2-1)], returned as a (2*n2-1, side, side)
    view with ``blocks[k]`` = R_{n2-1-k}.
    """
    n, side = gen.n2, gen.n1 * gen.n0
    row = np.empty((side, (2 * n - 1) * side), dtype=np.complex128)
    for k in range(2 * n - 1):
        row[:, k * side : (k + 1) * side] = assemble_dense_1l(gen.blocks[(n - 1 - k) % (2 * n - 1)])
    return row.reshape(side, 2 * n - 1, side).transpose(1, 0, 2)


def rybicki_solve(blocks: np.ndarray, y) -> np.ndarray:
    """Solve the block-Toeplitz system generated by ``blocks``, overwriting ``y``.

    ``blocks[k]`` = R_{N-1-k}: the 2*N-1 square blocks in decreasing offset
    order, as ``assemble_level1`` returns them (its array is read as a view,
    any other as a copy), so block (i, j) of the matrix is
    ``blocks[N-1-i+j]``.  ``y`` is the stacked (N*side, columns) right-hand
    side; a writeable C-contiguous complex128 ``y`` is overwritten with the
    solution and returned, and any other is copied first and left as it was.
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
    xb = x.reshape(n, side, -1)  # block row j holds y_j until stage j overwrites it with x_j

    def rb(offset: int) -> np.ndarray:
        return blocks[n - 1 - offset]

    # H_j at h[j-1] and G_j at g[N-1-j], so every stage-m stack is m contiguous blocks:
    # h[:m] = H_1 .. H_m, g[N-1-m:] = G_m .. G_1
    g = np.empty((max(n - 1, 0), side, side), dtype=np.complex128)
    h = np.empty_like(g)

    # stage 0 has empty stacks: D1 = D2 = -R_0, so it is the base stage
    for m in range(n):
        span = m * side
        pos = row[:, (n - 1 - m) * side : (n - 1) * side]  # R_m .. R_1
        neg = row[:, n * side : (n + m) * side]            # R_-1 .. R_-m
        gm = g[n - 1 - m :].reshape(span, side)
        hm = h[:m].reshape(span, side)

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

        if m < n - 1:
            d2 = neg @ hm - rb(0)
            try:
                lu2 = numerics.lu_factor(d2)
            except SingularMatrix as exc:
                raise SingularDenominator(m) from exc
            g_new = numerics.lu_solve(lu2, neg @ gm - rb(-(m + 1)))
            h_new = numerics.lu_solve(lu1, pos @ hm - rb(m + 1))
            # G_j's update reads H_{m+1-j} and H_{m+1-j}'s reads G_j, and no other
            # update reads either, so each pair is updated from its own old values
            for j in range(1, m + 1):
                g_upd = h[m - j] @ g_new
                h[m - j] -= g[n - 1 - j] @ h_new
                g[n - 1 - j] -= g_upd
            g[n - 2 - m] = g_new
            h[m] = h_new

    return x

"""Direct block-Toeplitz solver by a bordering (Rybicki-type) recursion.

The scalar algorithm solves a Toeplitz system by growing the solved
leading subsystem one row per step, maintaining generator sequences that
propagate the update.  Here every coefficient is an invertible dense
block, so products no longer commute and the generator updates must keep
their factors in matrix order.  With x, G, H the solution and generator
blocks at stage M, the step to stage M+1 reads

    x_{M+1} = D1^-1 (sum_j R_{M+1-j} x_j - y_{M+1})
    x_j    -= G_{M+1-j} x_{M+1}
    G_{M+1} = D2^-1 (sum_j R_{j-M-1} G_j - R_{-M-1})
    H_{M+1} = D1^-1 (sum_j R_{M+1-j} H_j - R_{M+1})
    G_j    -= H_{M+1-j} G_{M+1},   H_j -= G_{M+1-j} H_{M+1}

with denominators D1 = sum_i R_i G_i - R_0 and D2 = sum_i R_{-i} H_i - R_0
(all sums over the current stage, updates using stage-M values).  Each
denominator is LU-factored once per step; D1 serves both the solution
and the H update.  The base stage is the same step from empty sums:
D1 = D2 = -R_0, so x_1 = R_0^-1 y_1, G_1 = R_0^-1 R_{-1} and
H_1 = R_0^-1 R_1.

Every stage sum is one level-3 BLAS product on the coefficients as
stored.  ``assemble_level1`` writes each block once into one
(side, (2N-1)*side) row [R_{N-1} ... R_0 ... R_-(N-1)], so block row i
of the matrix is its window from column (N-1-i)*side, as for a scalar
Toeplitz row.  Stage M reads the windows [R_M ... R_1] (D1, the x and H
numerators) and [R_-1 ... R_-M] (D2, the G numerator), each times the
stage-M stack of x, G or H as one (M*side, .) matrix.  x and H are
stored in order and G reversed (G_j in slot N-1-j), so every stack is
contiguous.  The per-stage flops equal those of block-by-block sums.

The solve runs in place.  x is computed in the right-hand side block it
is given: y_{M+1} is read once, by the x_{M+1} numerator, and x_{M+1}
then overwrites it.  The x update subtracts G_{M+1-j} x_{M+1} from one
block row x_j at a time, and each G/H update pairs G_j with H_{M+1-j},
the only blocks that read each other, so neither forms an
(M*side, .) product.  Besides the right-hand side and the coefficients
the solve holds the G and H stacks, 2(N-1) blocks, two block rows of
the right-hand side and about a dozen blocks.  At 16x16 (side 128, 512
columns) its tracemalloc peak beyond those two is 12.1 MB, and that of
``schur_solve`` 37.0 MB; a layout that also built four reordered copies
of the off-diagonal blocks peaked at 27.8 and 52.7 MB.  A block-row
update writes contiguous rows, which numpy subtracts without the
iterator buffers a column-panel update of a strided view needs; with
one BLAS thread on a 2-core host it ran no slower than 64-column panels.

No tolerance and no preconditioner are involved: for fixed inputs the
output is bitwise deterministic.  The recursion requires every
denominator to be invertible and aborts with a diagnostic otherwise.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularBlock, SingularDenominator, SingularMatrix
from ..toeplitz import BlockGenerator2L, assemble_dense_1l

__all__ = ["rybicki_solve", "assemble_level1"]


def assemble_level1(gen: BlockGenerator2L) -> np.ndarray:
    """Assemble the level-1 blocks of a 2-level generator side by side.

    Writes each block, of side n1*n0, once into one C-contiguous
    (side, (2*n2-1)*side) array in decreasing offset order
    [R_{n2-1} ... R_0 ... R_-(n2-1)], and returns it as a
    (2*n2-1, side, side) view with ``blocks[k]`` = R_{n2-1-k}.
    """
    n, side = gen.n2, gen.n1 * gen.n0
    row = np.empty((side, (2 * n - 1) * side), dtype=np.complex128)
    for k in range(2 * n - 1):
        row[:, k * side : (k + 1) * side] = assemble_dense_1l(gen.column(n - 1 - k))
    return row.reshape(side, 2 * n - 1, side).transpose(1, 0, 2)


def rybicki_solve(blocks: np.ndarray, y) -> np.ndarray:
    """Solve the block-Toeplitz system generated by ``blocks``, overwriting ``y``.

    ``blocks`` holds the 2*N-1 square coefficient blocks in decreasing
    offset order, ``blocks[k]`` = R_{N-1-k} as ``assemble_level1`` returns
    them, so block (i, j) of the system matrix is ``blocks[N-1-i+j]``.
    They are read as ``blocks.transpose(1, 0, 2).reshape(side, -1)``, a
    view of ``assemble_level1``'s array and a copy of any other.  ``y`` is the
    stacked (N*side, columns) right-hand side block.  The solution is
    computed in place: a writeable C-contiguous complex128 ``y`` is
    overwritten and returned, and any other ``y`` is copied first and
    left as it was.
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

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
and the H update.  The base stage is x_1 = R_0^-1 y_1, G_1 = R_0^-1 R_{-1},
H_1 = R_0^-1 R_1.

Every stage sum is one level-3 BLAS product.  Before the loop the
coefficient blocks are laid side by side in four C-contiguous
(side, (N-1)*side) row concatenations, [R_1 ... R_{N-1}],
[R_{N-1} ... R_1], [R_-1 ... R_-(N-1)] and [R_-(N-1) ... R_-1].  At
stage M each sum is a column-slice view of one of them (the first or the
last M blocks) times the stage-M stack of x, G or H read as one
(M*side, .) matrix, and each x/G/H update is one (M*side, side) GEMM
whose block rows are subtracted in reverse order.  No per-stage copies
are made, and the per-stage flops equal those of the block-by-block sums.

No tolerance and no preconditioner are involved: for fixed inputs the
output is bitwise deterministic.  The recursion requires every
denominator to be invertible and aborts with a diagnostic otherwise.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from ..errors import ShapeError, SingularBlock, SingularDenominator, SingularMatrix
from ..toeplitz import BlockGenerator2L, assemble_dense_1l

__all__ = ["rybicki_solve", "assemble_level1", "wide_stack_bytes"]


def assemble_level1(gen: BlockGenerator2L) -> np.ndarray:
    """Assemble the level-1 matrices of a 2-level generator.

    Returns (2*n2-1, n1*n0, n1*n0) dense blocks in circulant order; the
    result generates the same matrix viewed as 1-level block-Toeplitz
    with side n1*n0 and stores (2*n2-1)*n1^2*n0^2 scalars.
    """
    return np.stack([assemble_dense_1l(col) for col in gen.columns])


def wide_stack_bytes(n: int, side: int) -> int:
    """Bytes of the four row concatenations ``rybicki_solve`` builds for n blocks of ``side``."""
    return 4 * (n - 1) * side**2 * np.dtype(np.complex128).itemsize


def rybicki_solve(blocks: np.ndarray, y) -> np.ndarray:
    """Solve the block-Toeplitz system generated by ``blocks``.

    ``blocks`` holds the 2*N-1 square coefficient blocks in circulant
    order (index n % (2N-1) is the block for signed offset n), so that
    block (i, j) of the system matrix is ``blocks[(i - j) % (2N - 1)]``.
    ``y`` is the stacked (N*side, columns) right-hand side block.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ShapeError(f"blocks must be (2N-1, side, side), got {blocks.shape}")
    if blocks.shape[0] % 2 == 0:
        raise ShapeError(f"expected an odd number of blocks, got {blocks.shape[0]}")
    n = (blocks.shape[0] + 1) // 2
    side = blocks.shape[1]

    rhs = numerics.as_columns(y, n * side)
    w = rhs.shape[1]
    yb = rhs.reshape(n, side, w)

    def rb(offset: int) -> np.ndarray:
        return blocks[offset % (2 * n - 1)]

    try:
        lu0 = numerics.lu_factor(rb(0))
    except SingularMatrix as exc:
        raise SingularBlock("self block R_0 is singular") from exc

    x = np.empty((n, side, w), dtype=np.complex128)
    g = np.empty((max(n - 1, 0), side, side), dtype=np.complex128)
    h = np.empty_like(g)

    x[0] = numerics.lu_solve(lu0, yb[0])
    if n > 1:
        g[0] = numerics.lu_solve(lu0, rb(-1))
        h[0] = numerics.lu_solve(lu0, rb(1))

    def wide(stack: np.ndarray) -> np.ndarray:
        # [stack[0] ... stack[-1]] side by side, (side, len(stack)*side)
        return stack.transpose(1, 0, 2).reshape(side, stack.shape[0] * side)

    pos = wide(blocks[1:n])                     # R_1 .. R_{N-1}
    pos_rev = wide(blocks[n - 1 : 0 : -1])      # R_{N-1} .. R_1
    neg = wide(blocks[2 * n - 2 : n - 1 : -1])  # R_-1 .. R_-(N-1)
    neg_rev = wide(blocks[n : 2 * n - 1])       # R_-(N-1) .. R_-1

    for m in range(1, n):
        span = m * side
        first = slice(0, span)                  # R_{+-1} .. R_{+-m}
        last = slice((n - 1 - m) * side, None)  # R_{+-m} .. R_{+-1}
        gm = g[:m].reshape(span, side)
        hm = h[:m].reshape(span, side)

        d1 = pos[:, first] @ gm - rb(0)
        try:
            lu1 = numerics.lu_factor(d1)
        except SingularMatrix as exc:
            raise SingularDenominator(m) from exc

        num_x = pos_rev[:, last] @ x[:m].reshape(span, w) - yb[m]
        x[m] = numerics.lu_solve(lu1, num_x)
        x[:m] -= (gm @ x[m]).reshape(m, side, w)[::-1]

        if m < n - 1:
            d2 = neg[:, first] @ hm - rb(0)
            try:
                lu2 = numerics.lu_factor(d2)
            except SingularMatrix as exc:
                raise SingularDenominator(m) from exc
            g_new = numerics.lu_solve(lu2, neg_rev[:, last] @ gm - rb(-(m + 1)))
            h_new = numerics.lu_solve(lu1, pos_rev[:, last] @ hm - rb(m + 1))
            # both products read the stage-m G and H, so form them before updating
            g_upd = (hm @ g_new).reshape(m, side, side)[::-1]
            h_upd = (gm @ h_new).reshape(m, side, side)[::-1]
            g[:m] -= g_upd
            g[m] = g_new
            h[:m] -= h_upd
            h[m] = h_new

    return x.reshape(n * side, w)

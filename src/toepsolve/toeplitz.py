"""Two-level block-Toeplitz generators and the fast circulant-embedding matvec.

A two-level block-Toeplitz matrix is constant along block diagonals on
both levels, with unstructured ``n0 x n0`` blocks at level 0.  Its
*generator* is its unique blocks in circulant order
``[0, +1, ..., +(N-1), -(N-1), ..., -1]`` on each level, which
``BlockGenerator2L`` stores once, as one array every reader indexes in
place.  Each level of side N is embedded in a block circulant of length
exactly ``L = 2N-1``, whose first block column *is* the generator, with
no zero fill (Chan & Ng, "Conjugate gradient methods for Toeplitz
systems", SIAM Review 38, 1996).  The block-wise multilevel DFT
``F = F_{L2} (x) F_{L1} (x) I_{n0}`` block-diagonalizes the circulant,
so a matvec is a forward transform, one small dense multiply per
transformed block row and an inverse transform, storing
``L2*L1*n0**2`` scalars instead of ``(n2*n1*n0)**2``.

The transforms are pruned (Markel, "FFT pruning", IEEE Trans. Audio
Electroacoust. 19, 1971; Sorensen & Burrus, IEEE Trans. Signal Process.
41, 1993): of each level's L inputs only the first n are nonzero and of
its L outputs only the first n are kept, so no zero-padded grid is
formed.  Each level is one GEMM with its pruned DFT matrix, and a panel
of w columns runs five GEMMs:

    1. F1 (L1 x n1) @ x viewed as (n2, n1, n0*w)    -> (n2, L1, n0*w)
    2. F2 (L2 x n2) @ (n2, L1*n0*w)                 -> (L2, L1*n0*w)
    3. diag_blocks (L2*L1, n0, n0) @ (L2*L1, n0, w)  -> (L2*L1, n0, w)
    4. G2 (n2 x L2) @ (L2, L1*n0*w)                 -> (n2, L1*n0*w)
    5. G1 (n1 x L1) @ (n2, L1, n0*w)                -> (n2, n1, n0*w)

That is about ``4*n2*n1*(n1 + 2*n2)`` complex multiply-adds per level-0
row and column, against ``O(n2*n1*log(n2*n1))`` for FFTs of the padded
grid, but at the sides of this package (up to 30) the GEMMs run at BLAS
speed and beat ``scipy.fft`` (PR 16), and L needs no fast FFT length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft

from .errors import BlockShapeMismatch, InvalidSpec, ShapeError
from .numerics import as_columns

__all__ = [
    "BlockGenerator1L",
    "BlockGenerator2L",
    "SpectralOperator",
    "circulant_offsets",
    "block_fft_2l",
    "precompute_spectral",
    "pad_rhs",
    "extract_result",
    "matvec",
    "MATVEC_PANEL",
    "assemble_dense_1l",
    "assemble_dense",
]

# complex128 columns per matvec panel, so twice as many complex64 columns: 16
# was fastest in every complex128 row of PR 16's panel timings
MATVEC_PANEL = 16


def circulant_offsets(n: int) -> np.ndarray:
    """Signed offsets in circulant order: [0, 1, ..., n-1, -(n-1), ..., -1]."""
    return np.concatenate([np.arange(n), np.arange(-(n - 1), 0)])


@lru_cache(maxsize=64)  # a few sides and two dtypes per process
def _dft_pair(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The pruned DFT matrices of a level of side n, at circulant length L = 2n-1.

    Forward (L, n): exp(-2 pi i k j / L); inverse (n, L): exp(+2 pi i j k / L) / L,
    only the n rows the matvec keeps.  Formed in complex128 from exactly
    reduced phases ``k j mod L``, cast to ``dtype``, read-only as shared.
    """
    length = 2 * n - 1
    phase = np.outer(np.arange(length), np.arange(n)) % length
    fwd = np.exp(-2j * np.pi / length * phase)
    pair = (fwd.astype(dtype), (fwd.conj().T / length).astype(dtype, order="C"))
    for a in pair:
        a.setflags(write=False)
    return pair


# perfbench's spelling of ``BlockGenerator2L.blocks[i]``; ROADMAP D7(e) relabels it, D12 deletes it
class BlockGenerator1L(NamedTuple):
    n1: int
    n0: int
    column: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockGenerator2L:
    """Generator of a 2-level block-Toeplitz matrix: its unique blocks, stored once.

    ``blocks`` is one (2*n2-1, 2*n1-1, n0, n0) array in circulant order on
    both levels: block ((p2, p1), (q2, q1)) of the assembled matrix is
    ``blocks[(p2-q2) % L2, (p1-q1) % L1]``, with L = 2n-1 per level.
    """

    n2: int
    n1: int
    n0: int
    blocks: np.ndarray  # (2*n2 - 1, 2*n1 - 1, n0, n0), circulant order

    def __post_init__(self):
        if isinstance(self.blocks, tuple):  # perfbench's per-offset tuple, until ROADMAP D7(e)/D12
            object.__setattr__(self, "blocks", np.stack([c.column for c in self.blocks]))
        if not isinstance(self.blocks, np.ndarray):
            raise BlockShapeMismatch(f"blocks must be an ndarray, got {type(self.blocks).__name__}")
        expected = (2 * self.n2 - 1, 2 * self.n1 - 1, self.n0, self.n0)
        if self.blocks.shape != expected:
            raise BlockShapeMismatch(f"blocks shape {self.blocks.shape} != {expected}")

    @property
    def dim(self) -> int:
        return self.n2 * self.n1 * self.n0

    def stacked4(self) -> np.ndarray:  # perfbench's spelling of ``blocks``, until ROADMAP D7(e)/D12
        return self.blocks


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Transformed generator: ``diag_blocks[i]``, block row i of the generator's forward DFT.

    On a transformed vector the circulant is the block-diagonal matrix of these n0 x n0 blocks.
    """

    n2: int
    n1: int
    n0: int
    diag_blocks: np.ndarray  # (L2*L1, n0, n0) with L = 2n-1 per level

    def __post_init__(self):
        if self.diag_blocks.shape != ((2 * self.n2 - 1) * (2 * self.n1 - 1), self.n0, self.n0):
            raise BlockShapeMismatch(f"diag_blocks shape {self.diag_blocks.shape} != (L2*L1, n0, n0)")

    @property
    def dim(self) -> int:
        return self.n2 * self.n1 * self.n0


def block_fft_2l(data, n2: int, n1: int, n0: int, direction: str = "forward") -> np.ndarray:
    """Pruned two-level block-wise DFT at the circulant lengths L = 2n-1.

    ``forward`` maps an (n2*n1*n0, columns) block, the nonzero rows of a
    zero-padded (L2, L1, n0, columns) grid, to all L2*L1*n0 rows of its
    transform by F_{L2} (x) F_{L1} (x) I_{n0}; ``inverse`` maps those rows
    back to the n2*n1*n0 the matvec keeps.  Level 1 goes first; a complex64
    block runs in complex64, any other in complex128; the input is kept.
    """
    if direction not in ("forward", "inverse"):
        raise InvalidSpec(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if min(n2, n1, n0) < 1:
        raise ShapeError(f"grid sides must be positive, got {(n2, n1, n0)}")
    l2, l1 = 2 * n2 - 1, 2 * n1 - 1
    inverse = direction == "inverse"
    arr = as_columns(data, (l2 * l1 if inverse else n2 * n1) * n0)
    (f2, g2), (f1, g1) = _dft_pair(n2, arr.dtype), _dft_pair(n1, arr.dtype)
    w = arr.shape[1]
    row = n0 * w  # the level-0 rows and the columns of one grid point
    x = np.ascontiguousarray(arr)
    if inverse:
        y = (g2 @ x.reshape(l2, l1 * row)).reshape(n2, l1, row)
        return (g1 @ y).reshape(n2 * n1 * n0, w)
    y = (f1 @ x.reshape(n2, n1, row)).reshape(n2, l1 * row)
    return (f2 @ y).reshape(l2 * l1 * n0, w)


def precompute_spectral(gen: BlockGenerator2L) -> SpectralOperator:
    """Forward-transform the generator, the circulant's first block column, into diagonal blocks."""
    blocks = scipy.fft.fftn(gen.blocks, axes=(0, 1))
    return SpectralOperator(gen.n2, gen.n1, gen.n0, blocks.reshape(-1, gen.n0, gen.n0))


def pad_rhs(u, n2: int, n1: int, n0: int) -> np.ndarray:
    """Zero-pad a stacked column block to the circulant grid, level by level.

    After each of the n2 level-2 segments come (n1-1)*n0 zero rows, and
    (n2-1)*L1*n0 zero rows end the block: ``block_fft_2l`` transforms it.
    """
    arr = as_columns(u, n2 * n1 * n0)
    l2, l1, w = 2 * n2 - 1, 2 * n1 - 1, arr.shape[1]
    out = np.zeros((l2 * l1 * n0, w), dtype=arr.dtype)
    out.reshape(l2, l1, n0, w)[:n2, :n1] = arr.reshape(n2, n1, n0, w)
    return out


def extract_result(v, n2: int, n1: int, n0: int) -> np.ndarray:
    """The rows of a circulant-length column block that the inverse ``block_fft_2l`` keeps."""
    l2, l1 = 2 * n2 - 1, 2 * n1 - 1
    arr = as_columns(v, l2 * l1 * n0)
    w = arr.shape[1]
    return arr.reshape(l2, l1, n0, w)[:n2, :n1].reshape(n2 * n1 * n0, w)


def matvec(op: SpectralOperator, u) -> np.ndarray:
    """Apply the represented block-Toeplitz matrix to an (op.dim, columns) block.

    The output is allocated once, in the ``numerics`` convention's dtype,
    which the pipeline runs in.  Each panel of ``MATVEC_PANEL`` complex128
    columns' bytes runs the forward transform, the block multiply (over the
    transform, four level-2 rows at a time) and the inverse transform into
    its slice of the output, so a panel holds one grid-sized transient at a
    time and a column's operations do not depend on the panel.
    """
    arr = as_columns(u, op.dim)
    dtype = np.result_type(op.diag_blocks, arr)
    n2, n1, n0 = op.n2, op.n1, op.n0
    points = op.diag_blocks.shape[0]
    chunk = 4 * (2 * n1 - 1)  # the points of four level-2 rows
    out = np.empty(arr.shape, dtype=dtype)
    panel = MATVEC_PANEL * 16 // dtype.itemsize
    for j in range(0, arr.shape[1], panel):
        cols = slice(j, j + panel)
        hat = block_fft_2l(arr[:, cols].astype(dtype, copy=False), n2, n1, n0,
                           "forward").reshape(points, n0, -1)
        # the block multiply overwrites the transform it reads, a few level-2 rows
        # at a time, so its only transient is one slice's copy of its input
        for i in range(0, points, chunk):
            part = slice(i, i + chunk)
            np.matmul(op.diag_blocks[part], hat[part], out=hat[part])
        out[:, cols] = block_fft_2l(hat.reshape(points * n0, -1), n2, n1, n0, "inverse")
        del hat  # not alive beside the next panel's transform
    return out


def _toeplitz_index(n: int) -> np.ndarray:
    """(n, n) circulant index of the offset i - j at block position (i, j) of a level of side n."""
    return (np.arange(n)[:, None] - np.arange(n)[None, :]) % (2 * n - 1)


def assemble_dense_1l(column: np.ndarray) -> np.ndarray:
    """The dense 1-level block-Toeplitz matrix of a (2n-1, n0, n0) circulant-order column."""
    n, n0 = (column.shape[0] + 1) // 2, column.shape[-1]
    full = column[_toeplitz_index(n)]  # (n, n, n0, n0)
    return full.transpose(0, 2, 1, 3).reshape(n * n0, n * n0)


def assemble_dense(gen: BlockGenerator2L) -> np.ndarray:
    """Densely assemble the full 2-level matrix; the matvec oracle.

    Level-2 block (i, j) is the level-1 matrix of offset i - j, whose block
    (p, q) is the generator block of offsets (i - j, p - q).
    """
    idx2, idx1 = _toeplitz_index(gen.n2), _toeplitz_index(gen.n1)
    full = gen.blocks[idx2[:, :, None, None], idx1[None, None, :, :]]  # (n2, n2, n1, n1, n0, n0)
    return full.transpose(0, 2, 4, 1, 3, 5).reshape(gen.dim, gen.dim)

"""Two-level block-Toeplitz generators and the fast circulant-embedding matvec.

A two-level block-Toeplitz matrix is constant along block diagonals on
both levels: level-2 blocks are themselves block-Toeplitz and level-0
blocks are unstructured ``n0 x n0`` matrices.  Such a matrix is fully
determined by its *generator*: the unique blocks arranged in circulant
order ``[0, +1, ..., +(N-1), -(N-1), ..., -1]`` on each level.
``BlockGenerator2L`` stores them once, as one (2*n2-1, 2*n1-1, n0, n0)
array that every reader (transform, assembly, preconditioner, file
I/O) indexes in place, without a copy.

Each level of side N is embedded in a block circulant of length exactly
``L = 2N-1``: the generator blocks for offsets ``0..N-1`` fill positions
``0..N-1`` and those for ``-(N-1)..-1`` fill ``N..2N-2``, so the
generator in circulant order *is* the circulant's first block column,
with no zero fill (Chan & Ng, "Conjugate gradient methods for Toeplitz
systems", SIAM Review 38, 1996).  The circulant is block-diagonalized by
the block-wise multilevel DFT

    F = F_{L2} (x) F_{L1} (x) I_{n0}

which turns a matvec into: forward transform, one small dense multiply
per transformed block row, inverse transform.  Storage is
``L2*L1*n0**2`` scalars, the generator's own count, instead of
``(n2*n1*n0)**2``.

The transforms are pruned (Markel, "FFT pruning", IEEE Trans. Audio
Electroacoust. 19, 1971; Sorensen & Burrus, IEEE Trans. Signal Process.
41, 1993): of each level's L inputs only the first n are nonzero, and of
its L outputs only the first n are kept, so no zero-padded grid is ever
formed.  Each level is one dense GEMM with its pruned DFT matrix, (L, n)
forward and (n, L) inverse, formed once per side and dtype.  A panel of
w columns runs five GEMMs with no FFT call:

    1. F1 (L1 x n1) @ x viewed as (n2, n1, n0*w)    -> (n2, L1, n0*w)
    2. F2 (L2 x n2) @ (n2, L1*n0*w)                 -> (L2, L1*n0*w)
    3. diag_blocks (L2*L1, n0, n0) @ (L2*L1, n0, w)  -> (L2*L1, n0, w)
    4. G2 (n2 x L2) @ (L2, L1*n0*w)                 -> (n2, L1*n0*w)
    5. G1 (n1 x L1) @ (n2, L1, n0*w)                -> (n2, n1, n0*w)

That is about ``4*n2*n1*(n1 + 2*n2)`` complex multiply-adds per level-0
row and column for the transforms, against ``O(n2*n1*log(n2*n1))`` for
FFTs of the padded grid, but on the grids of this package (sides up to
30) the GEMMs run at BLAS speed and the FFTs did not: a 32-column
complex64 matvec of a 16x16 grid (ne = 8) took 11.5-12.7 ms through
``scipy.fft`` at the fast lengths 32x32 and 5.2-5.9 ms as GEMMs (30x30:
39.5-41.1 against 19.8-22.7 ms; 12x20: 4.5-6.6 against 2.5-2.9 ms),
alternating processes, one BLAS thread, 2-core host.  A level needs no
fast FFT length, so L stays 2n-1 even where that is prime.  Against the
complex128 FFT matvec the complex128 GEMM matvec differs by 4-5e-16 and
the complex64 one by 1.1-1.7e-7 (the complex64 FFT matvec: 1.1-1.4e-7).

The pipeline runs, with DFT matrices of its dtype, in the dtype that the
``numerics`` convention gives ``diag_blocks`` and the block it receives.

``matvec`` runs that pipeline on panels of ``MATVEC_PANEL`` = 16
complex128 columns, the same bytes as 32 complex64 columns, and writes
each into its slice of the one output array.  Pushed through at full
width, 256 complex128 columns of a 16x16 grid make (L2*L1*n0, columns)
temporaries of 31.5 MB, every stage streams from main memory, and the
tracemalloc peak of the matvec is 7.7x its output; in panels it is 1.42x
(1.84x in complex64, 256 columns; 7.7x for the one panel of 32
complex64 columns a GMRES block hands over).  Each column goes through the same operations
whatever the panel, and the results were bitwise equal at every panel on
the grids below.  Interleaved medians of 25 matvecs with one BLAS thread
on a 2-core host, in ms, over three runs (ne = 8):

    grid, dtype, columns       full width     32          16          8
    16x16, complex128, 256    71.1-73.8   54.9-58.1   51.1-53.8   60.6-64.7
    12x20, complex128, 240    60.5-64.0   48.2-50.4   44.5-46.2   51.9-56.4
    30x30, complex128, 128   152.7-157.2 140.0-142.7 133.5-141.1 145.2-151.5
    16x16, complex64, 256     27.5-29.3   26.3-27.1   27.7-28.9   32.9-35.0
    16x16, complex64, 32       3.1-3.3     3.1-3.2     3.1-3.2     3.9-4.0
    30x30, complex64, 32      15.9-16.8   15.8-16.8   15.7-16.5   16.6-17.4

16 wins every complex128 row; in complex64, 16 and 32 are one panel at
the 32 columns a GMRES block hands over, and 32 gains about 4% at 256.
Fresh transients can cost as much as the arithmetic: when the C
allocator hands their pages back between calls, every call faults them
in again.  A fresh process timing 32-column complex64 matvecs of a 16x16
grid in a loop took about 1160 page faults a call (1990 through
``scipy.fft``), which is why those calls took 5.2-5.9 ms and not the
3.1 ms above; inside a GMRES solve the same matvec took 19 faults a
call (39 through ``scipy.fft``).  So each stage frees the one before it
as soon as it is formed, and the block multiply overwrites the transform
it reads, four level-2 rows at a time: a panel holds one grid-sized
transient at a time, beside its input and a level-1 intermediate or one
slice of the multiply.
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

# complex128 columns per panel of the matvec, so twice as many complex64
# columns (see the module docstring)
MATVEC_PANEL = 16


def circulant_offsets(n: int) -> np.ndarray:
    """Signed offsets in circulant order: [0, 1, ..., n-1, -(n-1), ..., -1]."""
    return np.concatenate([np.arange(n), np.arange(-(n - 1), 0)])


@lru_cache(maxsize=64)  # a few sides and two dtypes per process
def _dft_pair(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The pruned DFT matrices of a level of side n, at circulant length L = 2n-1.

    The forward (L, n) matrix, exp(-2 pi i k j / L), takes the n nonzero
    entries of a length-L sequence to all L frequencies; the inverse
    (n, L) matrix, exp(+2 pi i j k / L) / L, gives only the n entries the
    matvec keeps.  Formed in complex128 from exactly reduced phases
    ``k j mod L`` and cast to ``dtype``; read-only, since they are shared.
    """
    length = 2 * n - 1
    phase = np.outer(np.arange(length), np.arange(n)) % length
    fwd = np.exp(-2j * np.pi / length * phase)
    pair = (fwd.astype(dtype), (fwd.conj().T / length).astype(dtype, order="C"))
    for a in pair:
        a.setflags(write=False)
    return pair


# perfbench's per-offset spelling of ``BlockGenerator2L.blocks[i]``, until ROADMAP D7(d)
class BlockGenerator1L(NamedTuple):
    n1: int
    n0: int
    column: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockGenerator2L:
    """Generator of a 2-level block-Toeplitz matrix: its unique blocks, stored once.

    ``blocks`` is one (2*n2-1, 2*n1-1, n0, n0) array in circulant order
    on both levels.  With L = 2n-1 per level, block ((p2, p1), (q2, q1))
    of the assembled matrix is ``blocks[(p2-q2) % L2, (p1-q1) % L1]``.
    """

    n2: int
    n1: int
    n0: int
    blocks: np.ndarray  # (2*n2 - 1, 2*n1 - 1, n0, n0), circulant order

    def __post_init__(self):
        if isinstance(self.blocks, tuple):  # perfbench's per-offset tuple, until ROADMAP D7(d)
            object.__setattr__(self, "blocks", np.stack([c.column for c in self.blocks]))
        if not isinstance(self.blocks, np.ndarray):
            raise BlockShapeMismatch(f"blocks must be an ndarray, got {type(self.blocks).__name__}")
        expected = (2 * self.n2 - 1, 2 * self.n1 - 1, self.n0, self.n0)
        if self.blocks.shape != expected:
            raise BlockShapeMismatch(f"blocks shape {self.blocks.shape} != {expected}")

    @property
    def dim(self) -> int:
        return self.n2 * self.n1 * self.n0

    def stacked4(self) -> np.ndarray:  # perfbench's spelling of ``blocks``, until ROADMAP D7(d)
        return self.blocks


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Transformed generator: one dense n0 x n0 block per circulant grid point.

    ``diag_blocks[i]`` is block row ``i`` of the forward multilevel DFT of
    the generator, which is the first block column of the circulant; the
    circulant acts on a transformed vector as the block-diagonal matrix
    of these blocks.
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
    zero-padded (L2, L1, n0, columns) grid, to all L2*L1*n0 rows of that
    grid's transform by F_{L2} (x) F_{L1} (x) I_{n0}.  ``inverse`` maps
    an (L2*L1*n0, columns) block back through the inverse transform and
    returns only the n2*n1*n0 rows the matvec keeps.  Each level is one
    GEMM with its pruned DFT matrix, level 1 first; the block runs in
    complex64 if it is complex64 and in complex128 otherwise.  The input
    is never overwritten.
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

    With L = 2n-1 per level, each of the n2 level-2 segments (n1*n0 rows)
    is followed by (n1-1)*n0 zero rows, and (n2-1)*L1*n0 zero rows trail
    the whole block.  For n2 = 1 this degenerates to [u; 0].  The matvec
    never forms this grid: ``block_fft_2l`` transforms only its nonzero
    rows, and gives the full transform of this layout.
    """
    arr = as_columns(u, n2 * n1 * n0)
    l2, l1, w = 2 * n2 - 1, 2 * n1 - 1, arr.shape[1]
    out = np.zeros((l2 * l1 * n0, w), dtype=arr.dtype)
    out.reshape(l2, l1, n0, w)[:n2, :n1] = arr.reshape(n2, n1, n0, w)
    return out


def extract_result(v, n2: int, n1: int, n0: int) -> np.ndarray:
    """Collect the payload rows of a circulant-length column block, dropping scratch.

    With L = 2n-1 per level, segment n lives at rows n*L1*n0 ..
    n*L1*n0 + n1*n0 - 1: the rows the inverse ``block_fft_2l`` keeps.
    """
    l2, l1 = 2 * n2 - 1, 2 * n1 - 1
    arr = as_columns(v, l2 * l1 * n0)
    w = arr.shape[1]
    return arr.reshape(l2, l1, n0, w)[:n2, :n1].reshape(n2 * n1 * n0, w)


def matvec(op: SpectralOperator, u) -> np.ndarray:
    """Apply the represented block-Toeplitz matrix to an (op.dim, columns) block.

    The output is allocated once, in the dtype of the ``numerics``
    convention, which the pipeline runs in.  Each panel of
    ``MATVEC_PANEL`` complex128 columns' bytes runs the pruned forward
    transform -> per-block multiply by ``diag_blocks``, over the transform
    -> pruned inverse transform and is written into its slice of the
    output, so the temporaries are panel-sized whatever the width.
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

    Block (i, j) at level 2 is the level-1 matrix for offset i - j, and
    within it block (p, q) is the generator block for offsets
    (i - j, p - q).
    """
    idx2, idx1 = _toeplitz_index(gen.n2), _toeplitz_index(gen.n1)
    full = gen.blocks[idx2[:, :, None, None], idx1[None, None, :, :]]  # (n2, n2, n1, n1, n0, n0)
    return full.transpose(0, 2, 4, 1, 3, 5).reshape(gen.dim, gen.dim)

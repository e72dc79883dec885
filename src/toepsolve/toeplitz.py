"""Two-level block-Toeplitz generators and the FFT-accelerated matvec.

A two-level block-Toeplitz matrix is constant along block diagonals on
both levels: level-2 blocks are themselves block-Toeplitz and level-0
blocks are unstructured ``n0 x n0`` matrices.  Such a matrix is fully
determined by its *generator*: the unique blocks arranged in circulant
order ``[0, +1, ..., +(N-1), -(N-1), ..., -1]`` on each level.

Each level of side N is embedded in a block circulant of length
``L = next_fast_len(2N-1)``: the generator blocks for offsets
``0..N-1`` fill positions ``0..N-1``, those for ``-(N-1)..-1`` fill
``L-N+1..L-1``, and the positions between are zero.  Any ``L >= 2N-1``
keeps the embedding exact (Chan & Ng, "Conjugate gradient methods for
Toeplitz systems", SIAM Review 38, 1996), so ``L`` is picked as a length
the FFT library transforms fast instead of the often prime ``2N-1``.
The circulant is block-diagonalized by the block-wise multilevel DFT

    F = F_{L2} (x) F_{L1} (x) I_{n0}

which turns a matvec into: zero-pad, forward transform, one small dense
multiply per transformed block row, inverse transform, extract.  Storage
is ``L2*L1*n0**2`` scalars instead of ``(n2*n1*n0)**2`` and the matvec
costs ``O(n0**2*n2*n1 + n0*n1*n2*(log n1 + log n2))`` per column.

The block-wise transform of either direction is one ``scipy.fft`` call
over the two grid axes of the ``(L2, L1, n0, columns)`` view.

``matvec`` runs that pipeline on panels of ``MATVEC_PANEL`` = 16
columns and writes each into its slice of the one output array.  Pushed
through at full width, 256 columns of a 16x16 grid (ne = 8) make four
``(L2*L1*n0, columns)`` temporaries of 33.5 MB each, every stage streams
from main memory, and the tracemalloc peak of the matvec is 17x its
output.  A 16-column panel's temporaries are 2.1 MB each, about the size
of a core's L2 cache, and the transients stay O(panel) whatever the
width: the same matvec peaks at 2.25x its output.  Each column goes
through the same operations as at full width, and the results were
bitwise equal on the grids tried.  Interleaved medians of 25 matvecs
with one BLAS thread on a 2-core host, in ms:

    grid, columns   full width    32     16      8
    16x16, 256         142.9    100.0   93.4   94.2
    12x20, 240          86.3     83.8   79.6   75.4
    30x30, 128         297.4    246.2  231.1  235.0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import BlockShapeMismatch, InvalidSpec, MissingOffset, ShapeError
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

# columns per panel of the FFT matvec (see the module docstring)
MATVEC_PANEL = 16


def circulant_offsets(n: int) -> np.ndarray:
    """Signed offsets in circulant order: [0, 1, ..., n-1, -(n-1), ..., -1]."""
    return np.concatenate([np.arange(n), np.arange(-(n - 1), 0)])


def _embed_len(n: int) -> int:
    """Circulant length of a level of side n: the first fast FFT length >= 2n-1."""
    return scipy.fft.next_fast_len(2 * n - 1)


@dataclass(frozen=True)
class BlockGenerator1L:
    """Generator of a 1-level block-Toeplitz matrix.

    ``column[i]`` is the ``n0 x n0`` block for signed offset
    ``circulant_offsets(n1)[i]``; offset ``i - j`` is the block at block
    position (i, j) of the assembled matrix.
    """

    n1: int
    n0: int
    column: np.ndarray  # (2*n1 - 1, n0, n0), circulant order

    def __post_init__(self):
        expected = (2 * self.n1 - 1, self.n0, self.n0)
        if self.column.shape != expected:
            raise BlockShapeMismatch(f"column shape {self.column.shape} != {expected}")

    def block(self, offset: int) -> np.ndarray:
        if not -self.n1 < offset < self.n1:
            raise MissingOffset(f"offset {offset} outside +-{self.n1 - 1}")
        return self.column[offset % (2 * self.n1 - 1)]


@dataclass(frozen=True)
class BlockGenerator2L:
    """Generator of a 2-level block-Toeplitz matrix.

    ``columns`` holds one level-1 generator per signed level-2 offset, in
    circulant order; all share the same (n1, n0).
    """

    n2: int
    n1: int
    n0: int
    columns: tuple[BlockGenerator1L, ...]

    def __post_init__(self):
        if len(self.columns) != 2 * self.n2 - 1:
            raise BlockShapeMismatch(
                f"expected {2 * self.n2 - 1} level-1 generators, got {len(self.columns)}"
            )
        for col in self.columns:
            if (col.n1, col.n0) != (self.n1, self.n0):
                raise BlockShapeMismatch("level-1 generators disagree on (n1, n0)")

    def column(self, offset: int) -> BlockGenerator1L:
        if not -self.n2 < offset < self.n2:
            raise MissingOffset(f"offset {offset} outside +-{self.n2 - 1}")
        return self.columns[offset % (2 * self.n2 - 1)]

    def block(self, offset2: int, offset1: int) -> np.ndarray:
        return self.column(offset2).block(offset1)

    @property
    def dim(self) -> int:
        return self.n2 * self.n1 * self.n0

    @property
    def stored_scalars(self) -> int:
        return (2 * self.n2 - 1) * (2 * self.n1 - 1) * self.n0 * self.n0

    def stacked4(self) -> np.ndarray:
        """All blocks as one (2*n2-1, 2*n1-1, n0, n0) array, circulant order."""
        return np.stack([col.column for col in self.columns])


@dataclass(frozen=True)
class SpectralOperator:
    """Transformed generator: one dense n0 x n0 block per circulant grid point.

    ``diag_blocks[i]`` is block row ``i`` of the forward multilevel DFT of
    the zero-filled circulant embedding of the generator; the embedded
    circulant acts on a transformed vector as the block-diagonal matrix of
    these blocks.
    """

    n2: int
    n1: int
    n0: int
    # (L2*L1, n0, n0) with L = next_fast_len(2n-1) per level; a circulant
    # longer than 2n-1 is exact because the gap between the positive and
    # negative offsets is zero-filled (Chan & Ng, SIAM Review 38, 1996)
    diag_blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.n2 * self.n1 * self.n0


_TRANSFORMS = {"forward": scipy.fft.fftn, "inverse": scipy.fft.ifftn}


def block_fft_2l(data, n2: int, n1: int, n0: int, direction: str = "forward") -> np.ndarray:
    """Two-level block-wise DFT realizing F_{n2} (x) F_{n1} (x) I_{n0}.

    ``data`` is an (n2*n1*n0, columns) block.  One 2-D transform runs
    over the first two axes of the (n2, n1, n0, columns) view, so each
    level-0 row class and column is transformed on its own.  The matvec
    calls this with the circulant lengths L = next_fast_len(2n-1) of both
    levels.  The input is never overwritten.
    """
    if direction not in _TRANSFORMS:
        raise InvalidSpec(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if min(n2, n1, n0) < 1:
        raise ShapeError(f"grid sides must be positive, got {(n2, n1, n0)}")
    arr = as_columns(data, n2 * n1 * n0)
    return _TRANSFORMS[direction](arr.reshape(n2, n1, n0, -1), axes=(0, 1)).reshape(arr.shape)


def precompute_spectral(gen: BlockGenerator2L) -> SpectralOperator:
    """Forward-transform the zero-filled circulant embedding into diagonal blocks."""
    l2, l1, n0 = _embed_len(gen.n2), _embed_len(gen.n1), gen.n0
    embedded = np.zeros((l2, l1, n0, n0), dtype=np.complex128)
    rows2, rows1 = circulant_offsets(gen.n2) % l2, circulant_offsets(gen.n1) % l1
    embedded[np.ix_(rows2, rows1)] = gen.stacked4()
    transformed = block_fft_2l(embedded.reshape(l2 * l1 * n0, n0), l2, l1, n0, "forward")
    return SpectralOperator(gen.n2, gen.n1, n0, transformed.reshape(l2 * l1, n0, n0))


def pad_rhs(u, n2: int, n1: int, n0: int) -> np.ndarray:
    """Zero-pad a stacked column block to the circulant grid, level by level.

    With L = next_fast_len(2n-1) per level, each of the n2 level-2
    segments (n1*n0 rows) is followed by (L1-n1)*n0 zero rows, and
    (L2-n2)*L1*n0 zero rows trail the whole block.  For n2 = 1 this
    degenerates to [u; 0].
    """
    arr = as_columns(u, n2 * n1 * n0)
    l2, l1, w = _embed_len(n2), _embed_len(n1), arr.shape[1]
    out = np.zeros((l2 * l1 * n0, w), dtype=np.complex128)
    out.reshape(l2, l1, n0, w)[:n2, :n1] = arr.reshape(n2, n1, n0, w)
    return out


def extract_result(v, n2: int, n1: int, n0: int) -> np.ndarray:
    """Collect the payload rows of a circulant-length column block, dropping scratch.

    With L = next_fast_len(2n-1) per level, segment n lives at rows
    n*L1*n0 .. n*L1*n0 + n1*n0 - 1.
    """
    l2, l1 = _embed_len(n2), _embed_len(n1)
    arr = as_columns(v, l2 * l1 * n0)
    w = arr.shape[1]
    return arr.reshape(l2, l1, n0, w)[:n2, :n1].reshape(n2 * n1 * n0, w)


def matvec(op: SpectralOperator, u) -> np.ndarray:
    """Apply the represented block-Toeplitz matrix to an (op.dim, columns) block.

    The output is allocated once.  Each panel of ``MATVEC_PANEL`` columns
    runs pad -> forward transform -> per-block multiply by
    ``diag_blocks`` -> inverse transform -> extract and is written into
    its slice of the output, so the temporaries are panel-sized whatever
    the width.
    """
    arr = as_columns(u, op.dim)
    l2, l1, n0 = _embed_len(op.n2), _embed_len(op.n1), op.n0
    out = np.empty(arr.shape, dtype=np.complex128)
    for j in range(0, arr.shape[1], MATVEC_PANEL):
        cols = slice(j, j + MATVEC_PANEL)
        hat = block_fft_2l(pad_rhs(arr[:, cols], op.n2, op.n1, n0), l2, l1, n0, "forward")
        prod = op.diag_blocks @ hat.reshape(l2 * l1, n0, -1)
        back = block_fft_2l(prod.reshape(l2 * l1 * n0, -1), l2, l1, n0, "inverse")
        out[:, cols] = extract_result(back, op.n2, op.n1, n0)
    return out


def assemble_dense_1l(gen: BlockGenerator1L) -> np.ndarray:
    """Densely assemble a 1-level block-Toeplitz matrix (oracle-sized)."""
    idx = (np.arange(gen.n1)[:, None] - np.arange(gen.n1)[None, :]) % (2 * gen.n1 - 1)
    full = gen.column[idx]  # (n1, n1, n0, n0)
    return full.transpose(0, 2, 1, 3).reshape(gen.n1 * gen.n0, gen.n1 * gen.n0)


def assemble_dense(gen: BlockGenerator2L) -> np.ndarray:
    """Densely assemble the full 2-level matrix; the matvec oracle.

    Block (i, j) at level 2 is the level-1 matrix for offset i - j, and
    within it block (p, q) is the generator block for offsets
    (i - j, p - q).
    """
    blocks4 = gen.stacked4()
    idx2 = (np.arange(gen.n2)[:, None] - np.arange(gen.n2)[None, :]) % (2 * gen.n2 - 1)
    idx1 = (np.arange(gen.n1)[:, None] - np.arange(gen.n1)[None, :]) % (2 * gen.n1 - 1)
    full = blocks4[idx2[:, :, None, None], idx1[None, None, :, :]]  # (n2, n2, n1, n1, n0, n0)
    return full.transpose(0, 2, 4, 1, 3, 5).reshape(gen.dim, gen.dim)

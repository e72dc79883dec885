"""Generators, the pruned block-wise DFT, padding and the fast matvec."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from helpers import (
    block_at,
    dft_matrix,
    naive_dft,
    random_complex,
    random_generator,
    rel_err,
    wrap_generator,
)
from toepsolve import numerics, problems, toeplitz
from toepsolve.errors import BlockShapeMismatch, InvalidSpec, ShapeError
from toepsolve.toeplitz import (
    MATVEC_PANEL,
    BlockGenerator1L,
    BlockGenerator2L,
    SpectralOperator,
    assemble_dense,
    assemble_dense_1l,
    block_fft_2l,
    extract_result,
    matvec,
    pad_rhs,
    precompute_spectral,
)


# matvec error against the dense complex128 product, by the input dtype
MATVEC_BOUND = {np.complex128: 1e-12, np.complex64: 1e-6}
# pruned DFT error against its explicit dense matrix, by the input dtype
DFT_BOUND = {np.complex128: 1e-13, np.complex64: 1e-6}


def spectral(gen, dtype):
    """The spectral operator of ``gen`` in ``dtype``, so its matvec computes in that dtype."""
    return numerics.astype(precompute_spectral(gen), dtype)


def panel_columns(dtype) -> int:
    """Columns per matvec panel: MATVEC_PANEL counts complex128 columns' bytes."""
    return MATVEC_PANEL * 16 // np.dtype(dtype).itemsize


def _panel_boundary_cases():
    """Widths around each dtype's panel; the complex128 cases keep their plain width ids."""
    for dtype in (np.complex128, np.complex64):
        panel = panel_columns(dtype)
        for width in (0, 1, panel - 1, panel, panel + 1, 2 * panel + 3):
            yield pytest.param(dtype, width, id=str(width) if dtype == np.complex128 else f"complex64-{width}")


def pruned_dft(n, inverse=False) -> np.ndarray:
    """Explicit rows of the pruned DFT of a level of side n at length L = 2n-1.

    Forward: the first n columns of the L-point DFT, exp(-2 pi i k j / L).
    Inverse: the first n rows of the inverse, exp(+2 pi i j k / L) / L.
    """
    f = dft_matrix(2 * n - 1, inverse=inverse)
    return f[:n] if inverse else f[:, :n]


def single_block(r0) -> np.ndarray:
    """The (1, 1, n0, n0) block array of a one-element grid."""
    return np.asarray(r0, dtype=np.complex128)[None, None]


class TestEmbed:
    """The circulant-order layout of the one generator array, which the embedding reads."""

    def test_scalar_circulant_order(self):
        # [t0, t1, t2, t-2, t-1] with t_k = 10 + k
        gen = wrap_generator(np.array([10.0, 11, 12, 8, 9]).reshape(1, 5, 1, 1))
        assert [block_at(gen, 0, off)[0, 0] for off in range(-2, 3)] == [8, 9, 10, 11, 12]

    def test_single_block(self):
        r0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(block_at(wrap_generator(single_block(r0)), 0, 0), r0)

    def test_zero_offdiagonals_decouple(self):
        rng = np.random.default_rng(0)
        r0 = random_complex(rng, 3, 3)
        blocks4 = np.zeros((1, 3, 3, 3), dtype=complex)
        blocks4[0, 0] = r0
        op = precompute_spectral(wrap_generator(blocks4))
        u = random_complex(rng, 6, 2)
        want = np.vstack([r0 @ u[:3], r0 @ u[3:]])
        assert rel_err(matvec(op, u), want) <= 1e-14

    def test_block_shape_mismatch(self):
        with pytest.raises(BlockShapeMismatch):
            BlockGenerator2L(1, 1, 2, np.eye(3)[None, None])
        with pytest.raises(BlockShapeMismatch):  # 2*n1 - 1 = 3 level-1 offsets, not 4
            BlockGenerator2L(1, 2, 1, np.ones((1, 4, 1, 1)))
        with pytest.raises(BlockShapeMismatch):  # the level-2 offsets are missing
            BlockGenerator2L(2, 2, 1, np.ones((3, 1, 1)))
        with pytest.raises(BlockShapeMismatch):  # a nested list, not an array
            BlockGenerator2L(1, 1, 1, [[[[1.0]]]])

    def test_per_offset_tuple_stacks_into_the_one_array(self):
        # the spelling perfbench builds generators with, until ROADMAP D7(d)
        blocks4 = random_generator(np.random.default_rng(1), 3, 4, 2).blocks
        cols = tuple(BlockGenerator1L(4, 2, np.ascontiguousarray(b)) for b in blocks4)
        gen = BlockGenerator2L(3, 4, 2, cols)
        assert gen.blocks.dtype == blocks4.dtype and np.array_equal(gen.blocks, blocks4)
        assert gen.stacked4() is gen.blocks


class TestBlockFft2L:
    """The pruned transform: n nonzero input rows, L = 2n-1 frequencies, n kept output rows."""

    def test_degenerate_level_equals_1l(self):
        # n2 = 1: the level-1 FFT of the zero-padded length-9 sequence
        rng = np.random.default_rng(4)
        x = random_complex(rng, 10, 2)
        got = block_fft_2l(x, n2=1, n1=5, n0=2)
        padded = np.zeros((9, 2, 2), dtype=complex)
        padded[:5] = x.reshape(5, 2, 2)
        one_level = np.fft.fft(padded, axis=0).reshape(18, 2)
        assert rel_err(got, one_level) <= 1e-15

    def test_f2_kron_f2(self):
        # a 2x2 grid: the first two columns of the 3-point DFT on both levels
        rng = np.random.default_rng(5)
        u = random_complex(rng, 4)[:, None]
        want = np.kron(pruned_dft(2), pruned_dft(2)) @ u
        assert rel_err(block_fft_2l(u, 2, 2, 1), want) <= 1e-13

    def test_kronecker_identity_small_grids(self):
        rng = np.random.default_rng(6)
        grids = [(n2, n1, n0) for n2 in (1, 2, 3) for n1 in (1, 2, 3) for n0 in (1, 2)]
        for n2, n1, n0 in grids + [(1, 7, 1), (1, 12, 1)]:
            u = random_complex(rng, n2 * n1 * n0, 2)
            mat = np.kron(pruned_dft(n2), np.kron(pruned_dft(n1), np.eye(n0)))
            assert rel_err(block_fft_2l(u, n2, n1, n0), mat @ u) <= 1e-13
            w = random_complex(rng, (2 * n2 - 1) * (2 * n1 - 1) * n0, 2)
            inv = np.kron(pruned_dft(n2, inverse=True), np.kron(pruned_dft(n1, inverse=True), np.eye(n0)))
            assert rel_err(block_fft_2l(w, n2, n1, n0, "inverse"), inv @ w) <= 1e-13

    # L = 2n-1 per level: 1 (n = 1), primes 3, 7, 13 and 31, composites 9, 15 and 21
    @pytest.mark.parametrize("grid", [(1, 1, 2), (1, 4, 2), (5, 1, 1), (5, 2, 1), (8, 7, 1),
                                      (11, 2, 2), (16, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["complex128", "complex64"])
    def test_dense_dft_oracle(self, grid, dtype):
        n2, n1, n0 = grid
        rng = np.random.default_rng(list(grid))
        fwd = np.kron(pruned_dft(n2), np.kron(pruned_dft(n1), np.eye(n0)))
        inv = np.kron(pruned_dft(n2, inverse=True), np.kron(pruned_dft(n1, inverse=True), np.eye(n0)))
        u = random_complex(rng, n2 * n1 * n0, 3)
        got = block_fft_2l(u.astype(dtype), n2, n1, n0, "forward")
        assert got.dtype == dtype and got.shape == ((2 * n2 - 1) * (2 * n1 - 1) * n0, 3)
        assert rel_err(got, fwd @ u) <= DFT_BOUND[dtype]
        w = random_complex(rng, fwd.shape[0], 3)
        got = block_fft_2l(w.astype(dtype), n2, n1, n0, "inverse")
        assert got.dtype == dtype and got.shape == u.shape
        assert rel_err(got, inv @ w) <= DFT_BOUND[dtype]

    def test_full_transform_of_the_padded_grid(self):
        # forward is the FFT of the zero-padded grid; inverse keeps the rows
        # extract_result takes from the inverse FFT
        rng = np.random.default_rng(8)
        n2, n1, n0 = 4, 6, 2
        shape = (2 * n2 - 1, 2 * n1 - 1, n0, 3)
        u = random_complex(rng, n2 * n1 * n0, 3)
        full = scipy.fft.fftn(pad_rhs(u, n2, n1, n0).reshape(shape), axes=(0, 1))
        assert rel_err(block_fft_2l(u, n2, n1, n0), full.reshape(-1, 3)) <= 1e-14
        w = random_complex(rng, np.prod(shape[:3]), 3)
        back = scipy.fft.ifftn(w.reshape(shape), axes=(0, 1)).reshape(-1, 3)
        assert rel_err(block_fft_2l(w, n2, n1, n0, "inverse"), extract_result(back, n2, n1, n0)) <= 1e-14

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        x = random_complex(rng, 3 * 5 * 2, 3)
        back = block_fft_2l(block_fft_2l(x, 3, 5, 2), 3, 5, 2, direction="inverse")
        assert rel_err(back, x) <= 1e-14

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            block_fft_2l(np.ones((11, 1)), 2, 3, 2)
        with pytest.raises(ShapeError):  # the inverse takes the 3*5*2 circulant rows
            block_fft_2l(np.ones((12, 1)), 2, 3, 2, direction="inverse")
        with pytest.raises(InvalidSpec):
            block_fft_2l(np.ones((12, 1)), 2, 3, 2, direction="sideways")
        with pytest.raises(ShapeError, match="grid sides must be positive"):
            block_fft_2l(np.ones((0, 1)), 2, 0, 2)


class TestPrecomputeSpectral:
    def test_zero_generator(self):
        gen = random_generator(np.random.default_rng(8), 2, 3, 2)
        zero = wrap_generator(np.zeros((3, 5, 2, 2)))
        assert not precompute_spectral(zero).diag_blocks.any()
        assert precompute_spectral(gen).diag_blocks.shape == (3 * 5, 2, 2)

    def test_trivial_grid_keeps_block(self):
        r0 = np.array([[1.0 + 2j, 0.5], [0.25, -1j]])
        gen = wrap_generator(single_block(r0))
        assert np.allclose(precompute_spectral(gen).diag_blocks[0], r0, rtol=1e-15)

    def test_diag_blocks_shape_is_checked(self):
        # a 2x2 grid of 2x2 blocks transforms to (2*2-1)^2 = 9 blocks, not 3
        with pytest.raises(BlockShapeMismatch):
            SpectralOperator(2, 2, 2, np.zeros((3, 2, 2)))

    def test_three_point_dft(self):
        gen = wrap_generator(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))  # offsets 0, 1, -1
        got = precompute_spectral(gen).diag_blocks[:, 0, 0]
        assert rel_err(got, naive_dft(np.array([1.0, 2.0, 3.0]))) <= 1e-14


class TestPadExtract:
    def test_pad_1d_layout(self):
        got = pad_rhs(np.array([1.0, 2.0])[:, None], 1, 2, 1)[:, 0]
        assert np.array_equal(got, [1, 2, 0])

    def test_pad_2l_layout(self):
        got = pad_rhs(np.array([1.0, 2.0, 3.0, 4.0])[:, None], 2, 2, 1)[:, 0]
        assert np.array_equal(got, [1, 2, 0, 3, 4, 0, 0, 0, 0])

    def test_pad_to_exact_length(self):
        # n1 = 7: the circulant has exactly 2*n1-1 = 13 rows, a prime FFT length
        got = pad_rhs(np.arange(1.0, 8.0)[:, None], 1, 7, 1)[:, 0]
        assert np.array_equal(got, [1, 2, 3, 4, 5, 6, 7] + [0] * 6)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for grid in [(3, 4, 2), (7, 12, 2)]:
            u = random_complex(rng, int(np.prod(grid)), 5)
            assert np.array_equal(extract_result(pad_rhs(u, *grid), *grid), u)

    def test_extract_markers(self):
        # n2=3, n1=2, n0=1: circulant length (2*3-1)*(2*2-1) = 15, payload
        # segment n at rows (0..n1*n0-1) + n*(2*n1-1)*n0
        v = np.zeros(15)
        positions = [0, 1, 3, 4, 6, 7]
        v[positions] = np.arange(1, 7)
        assert np.array_equal(extract_result(v[:, None], 3, 2, 1)[:, 0], np.arange(1, 7))

    def test_extract_drops_scratch_1l(self):
        # n2=1, n1=3, n0=1: first n1*n0 rows are payload, (n1-1)*n0 scratch
        v = np.array([1.0, 2.0, 3.0, 99.0, 98.0])
        assert np.array_equal(extract_result(v[:, None], 1, 3, 1)[:, 0], [1, 2, 3])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            pad_rhs(np.ones((5, 1)), 2, 2, 1)
        with pytest.raises(ShapeError):
            extract_result(np.ones((5, 1)), 2, 2, 1)


class TestMatvec:
    def test_identity_generator(self):
        n2, n1, n0 = 2, 3, 4
        blocks4 = np.zeros((2 * n2 - 1, 2 * n1 - 1, n0, n0))
        blocks4[0, 0] = np.eye(n0)
        op = precompute_spectral(wrap_generator(blocks4))
        rng = np.random.default_rng(10)
        u = random_complex(rng, n2 * n1 * n0, 2)
        assert rel_err(matvec(op, u), u) <= 1e-14

    def test_single_cell_exact(self):
        rng = np.random.default_rng(11)
        r0 = random_complex(rng, 4, 4)
        op = precompute_spectral(wrap_generator(single_block(r0)))
        u = random_complex(rng, 4, 3)
        assert rel_err(matvec(op, u), r0 @ u) <= 1e-15

    def test_dense_oracle_2x2_grid(self):
        rng = np.random.default_rng(12)
        gen = random_generator(rng, 2, 2, 3)
        op = precompute_spectral(gen)
        u = random_complex(rng, gen.dim, 4)
        assert rel_err(matvec(op, u), assemble_dense(gen) @ u) <= 1e-12

    def test_dense_oracle_symmetric_generator(self):
        rng = np.random.default_rng(13)
        gen = random_generator(rng, 3, 3, 2, symmetric=True)
        dense = assemble_dense(gen)
        assert rel_err(dense, dense.T) <= 1e-15  # sanity of the construction
        op = precompute_spectral(gen)
        u = random_complex(rng, gen.dim, 2)
        assert rel_err(matvec(op, u), dense @ u) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(15)
        gen = random_generator(rng, 2, 3, 2)
        op = precompute_spectral(gen)
        u, w = random_complex(rng, gen.dim)[:, None], random_complex(rng, gen.dim)[:, None]
        a, b = 1.3 - 0.7j, -2.1 + 0.4j
        lhs = matvec(op, a * u + b * w)
        rhs = a * matvec(op, u) + b * matvec(op, w)
        assert rel_err(lhs, rhs) <= 1e-13

    def test_multi_column_consistency(self):
        # batched FFT/GEMM kernels differ bitwise from their single-column
        # paths, so "equal" here means to a few ulps
        rng = np.random.default_rng(16)
        gen = random_generator(rng, 3, 4, 5)
        op = precompute_spectral(gen)
        u = random_complex(rng, gen.dim, 6)
        full = matvec(op, u)
        cols = np.column_stack([matvec(op, u[:, w : w + 1]) for w in range(6)])
        assert rel_err(full, cols) <= 1e-14

    @pytest.mark.parametrize("dtype, width", list(_panel_boundary_cases()))
    def test_dense_oracle_across_panel_boundaries(self, dtype, width):
        rng = np.random.default_rng(width)
        gen = random_generator(rng, 3, 4, 2)
        u = random_complex(rng, gen.dim, width)
        got = matvec(spectral(gen, dtype), u.astype(dtype))
        assert got.shape == (gen.dim, width) and got.dtype == dtype
        assert rel_err(got, assemble_dense(gen) @ u) <= MATVEC_BOUND[dtype]

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["complex128", "complex64"])
    def test_input_layout_does_not_change_bits(self, dtype):
        rng = np.random.default_rng(19)
        gen = random_generator(rng, 3, 4, 2)
        op = spectral(gen, dtype)
        width = 2 * panel_columns(dtype) + 3
        wide = random_complex(rng, gen.dim, width + 5).astype(dtype)
        u = np.ascontiguousarray(wide[:, 2 : 2 + width])
        kept = u.copy()
        want = matvec(op, u)
        assert np.array_equal(u, kept)
        assert np.array_equal(matvec(op, np.asfortranarray(u)), want)
        assert np.array_equal(matvec(op, wide[:, 2 : 2 + width]), want)
        assert np.array_equal(wide[:, 2 : 2 + width], kept)

    def test_complex64_block_on_a_complex128_operator_is_computed_in_complex128(self):
        rng = np.random.default_rng(24)
        gen = random_generator(rng, 3, 4, 2)
        op = precompute_spectral(gen)
        u = random_complex(rng, gen.dim, 2 * panel_columns(np.complex64) + 3).astype(np.complex64)
        got = matvec(op, u)
        assert got.dtype == np.complex128
        assert np.array_equal(got, matvec(op, u.astype(np.complex128)))

    def test_transient_memory_is_panel_sized(self):
        # the transients scale with the panel, not the width: one pass over
        # all 256 columns at once peaks at 8.5x the output
        spec = problems.ArrayProblemSpec(ny=16, nx=16, ne=8, nb=0)
        op = precompute_spectral(problems.generate(spec).gen)
        u = random_complex(np.random.default_rng(20), op.dim, 256)
        tracemalloc.start()
        try:
            out = matvec(op, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes

    def test_oracle_sweep_random_generators(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n2, n1 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            n0 = int(rng.integers(1, 9))
            gen = random_generator(rng, n2, n1, n0)
            op = precompute_spectral(gen)
            u = random_complex(rng, gen.dim, 2)
            want = assemble_dense(gen) @ u
            assert rel_err(matvec(op, u), want) <= 1e-12

    # 2n-1 = 31, 17, 13 and 23 are not fast FFT lengths, and the circulant
    # keeps each exactly: the first two grids have one such level, the last
    # two have two
    @pytest.mark.parametrize("grid", [(1, 16, 3), (9, 1, 2), (7, 12, 2), (16, 16, 1)])
    def test_dense_oracle_padded_lengths(self, grid):
        n2, n1, n0 = grid
        rng = np.random.default_rng(list(grid))
        gen = random_generator(rng, n2, n1, n0)
        op = precompute_spectral(gen)
        points = (2 * n2 - 1) * (2 * n1 - 1)
        assert op.diag_blocks.shape == (points, n0, n0)
        assert op.diag_blocks.nbytes == gen.blocks.nbytes
        dense = assemble_dense(gen)
        u = random_complex(rng, gen.dim, 2)
        assert rel_err(matvec(op, u), dense @ u) <= 1e-12

    def test_shape_error(self):
        gen = random_generator(np.random.default_rng(18), 2, 2, 2)
        with pytest.raises(ShapeError):
            matvec(precompute_spectral(gen), np.ones((5, 1)))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["complex128", "complex64"])
    def test_makes_no_fft_library_call(self, monkeypatch, dtype):
        # the transforms are GEMMs: only precompute_spectral calls scipy.fft
        rng = np.random.default_rng(23)
        gen = random_generator(rng, 3, 4, 2)
        op = spectral(gen, dtype)
        monkeypatch.setattr(toeplitz, "scipy", None)
        u = random_complex(rng, gen.dim, 3)
        assert rel_err(matvec(op, u.astype(dtype)), assemble_dense(gen) @ u) <= MATVEC_BOUND[dtype]


class TestAssembleDense:
    def test_single_cell(self):
        r0 = np.array([[1.0, 2j], [3.0, 4.0]])
        gen = wrap_generator(single_block(r0))
        assert np.array_equal(assemble_dense(gen), r0)

    def test_2x1_grid_layout(self):
        rng = np.random.default_rng(19)
        r0, r1, r_1 = (random_complex(rng, 2, 2) for _ in range(3))
        gen = wrap_generator(np.stack([r0, r1, r_1])[:, None])  # level-2 offsets 0, 1, -1
        dense = assemble_dense(gen)
        assert np.array_equal(dense[:2, :2], r0)
        assert np.array_equal(dense[:2, 2:], r_1)
        assert np.array_equal(dense[2:, :2], r1)
        assert np.array_equal(dense[2:, 2:], r0)

    def test_toeplitz_property_exhaustive(self):
        rng = np.random.default_rng(20)
        gen = random_generator(rng, 3, 3, 2)
        dense = assemble_dense(gen)
        n0 = gen.n0

        def cell(i, j):
            return dense[i * n0 : (i + 1) * n0, j * n0 : (j + 1) * n0]

        for i2 in range(3):
            for j2 in range(3):
                for i1 in range(3):
                    for j1 in range(3):
                        i, j = i2 * 3 + i1, j2 * 3 + j1
                        assert np.array_equal(cell(i, j), block_at(gen, i2 - j2, i1 - j1))

    def test_storage_is_sub_dense(self):
        gen = random_generator(np.random.default_rng(21), 3, 4, 2)
        assert gen.blocks.size == (2 * 3 - 1) * (2 * 4 - 1) * 4
        assert gen.blocks.size < gen.dim**2

    def test_1l_assembly_matches_block_lookup(self):
        rng = np.random.default_rng(22)
        gen = random_generator(rng, 1, 4, 3)
        dense = assemble_dense_1l(gen.blocks[0])
        for i in range(4):
            for j in range(4):
                got = dense[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3]
                assert np.array_equal(got, block_at(gen, 0, i - j))

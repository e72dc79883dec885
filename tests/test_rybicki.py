"""Block bordering recursion and level-1 assembly."""

import numpy as np
import pytest

from helpers import random_complex, random_generator, rel_err
from toepsolve import cli
from toepsolve.errors import ShapeError, SingularBlock, SingularDenominator, SingularSchurComplement
from toepsolve.problems import ArrayProblemSpec, BorderedSystem, build_excitations, generate
from toepsolve.solvers import assemble_level1, rybicki_solve, schur_solve
from toepsolve.toeplitz import assemble_dense, circulant_offsets


def random_block_toeplitz(rng, n, side, boost=4.0):
    """Circulant-ordered random blocks with a dominant self block."""
    blocks = np.empty((2 * n - 1, side, side), dtype=np.complex128)
    for off in range(-(n - 1), n):
        blocks[off % (2 * n - 1)] = random_complex(rng, side, side)
    blocks[0] += boost * np.eye(side)
    return blocks


def dense_from_blocks(blocks):
    k = blocks.shape[0]
    n = (k + 1) // 2
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % k
    full = blocks[idx]
    side = blocks.shape[1]
    return full.transpose(0, 2, 1, 3).reshape(n * side, n * side)


class TestRybicki:
    def test_single_block_is_plain_solve(self):
        rng = np.random.default_rng(0)
        r0 = random_complex(rng, 5, 5) + 2 * np.eye(5)
        y = random_complex(rng, 5, 2)
        got = rybicki_solve(r0[None], y)
        assert rel_err(got, np.linalg.solve(r0, y)) <= 1e-12

    def test_scalar_blocks_match_dense(self):
        rng = np.random.default_rng(1)
        for n in (2, 6, 17, 32):
            blocks = random_block_toeplitz(rng, n, 1)
            y = random_complex(rng, n)[:, None]
            got = rybicki_solve(blocks, y)
            want = np.linalg.solve(dense_from_blocks(blocks), y)
            assert rel_err(got, want) <= 1e-11

    def test_block_case_residual(self):
        rng = np.random.default_rng(2)
        blocks = random_block_toeplitz(rng, 4, 6)
        # transpose-symmetric pairs, as the synthetic kernel produces
        for off in range(1, 4):
            blocks[-off % 7] = blocks[off].T.copy()
        dense = dense_from_blocks(blocks)
        y = random_complex(rng, 24, 3)
        x = rybicki_solve(blocks, y)
        assert np.linalg.norm(dense @ x - y) / np.linalg.norm(y) <= 1e-10

    @pytest.mark.parametrize("n, side, w", [(9, 5, 40), (2, 4, 3)])
    def test_general_blocks_match_dense(self, n, side, w):
        # no R_-k = R_k^T pairing, so every wide-array column offset is exercised;
        # n = 2 runs a single stage with no G/H update
        rng = np.random.default_rng(10 + n)
        blocks = random_block_toeplitz(rng, n, side)
        y = random_complex(rng, n * side, w)
        got = rybicki_solve(blocks, y)
        want = np.linalg.solve(dense_from_blocks(blocks), y)
        assert rel_err(got, want) <= 1e-10

    def test_stagewise_leading_subsystem_invariant(self):
        # the leading M-block system of a block-Toeplitz matrix is block-Toeplitz,
        # generated by the blocks of offsets -(M-1)..(M-1)
        rng = np.random.default_rng(3)
        n, side = 5, 3
        blocks = random_block_toeplitz(rng, n, side)
        dense = dense_from_blocks(blocks)
        y = random_complex(rng, n * side, 2)
        for m in range(1, n + 1):
            lead = slice(0, m * side)
            xm = rybicki_solve(blocks[circulant_offsets(m) % (2 * n - 1)], y[lead])
            res = np.linalg.norm(dense[lead, lead] @ xm - y[lead]) / np.linalg.norm(y)
            assert res <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        blocks = random_block_toeplitz(rng, 3, 4)
        y = random_complex(rng, 12)[:, None]
        assert np.array_equal(rybicki_solve(blocks, y), rybicki_solve(blocks, y))

    def test_singular_self_block(self):
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[1] = np.eye(2)
        blocks[2] = np.eye(2)
        with pytest.raises(SingularBlock):
            rybicki_solve(blocks, np.ones((4, 1)))

    def test_singular_denominator_reports_step(self):
        # scalars r0 = r1 = r-1 = 1: D1 = r1*r0^-1*r-1 - r0 = 0 at step 1
        blocks = np.ones((3, 1, 1), dtype=complex)
        with pytest.raises(SingularDenominator) as err:
            rybicki_solve(blocks, np.ones((2, 1)))
        assert err.value.step == 1

    def test_shape_contracts(self):
        with pytest.raises(ShapeError):
            rybicki_solve(np.ones((4, 2, 2)), np.ones((4, 1)))  # even block count
        with pytest.raises(ShapeError):
            rybicki_solve(np.ones((3, 2, 2)), np.ones((5, 1)))


class TestAssembleLevel1:
    def test_single_column_grid_passthrough(self):
        rng = np.random.default_rng(5)
        gen = random_generator(rng, 4, 1, 3)
        level1 = assemble_level1(gen)
        assert level1.shape == (7, 3, 3)
        for off in circulant_offsets(4):
            assert np.array_equal(level1[off % 7], gen.block(off, 0))

    def test_entries_match_generator_blocks(self):
        rng = np.random.default_rng(6)
        gen = random_generator(rng, 3, 3, 2)
        level1 = assemble_level1(gen)
        n0 = 2
        for off in circulant_offsets(3):
            block = level1[off % 5]
            for p in range(3):
                for q in range(3):
                    got = block[p * n0 : (p + 1) * n0, q * n0 : (q + 1) * n0]
                    assert np.array_equal(got, gen.block(off, p - q))

    def test_level1_reassembles_to_dense_bitwise(self):
        rng = np.random.default_rng(7)
        gen = random_generator(rng, 3, 4, 2)
        assert np.array_equal(dense_from_blocks(assemble_level1(gen)), assemble_dense(gen))

    def test_storage_count(self):
        gen = random_generator(np.random.default_rng(8), 5, 3, 2)
        assert assemble_level1(gen).size == (2 * 5 - 1) * (3 * 2) ** 2


def test_schur_reports_wide_stack_bytes():
    sys_ = generate(ArrayProblemSpec(ny=3, nx=4, ne=2, nb=4, seed=7))
    _, rec, _ = cli.run_method(sys_, build_excitations(sys_, 0).matrix, "rybicki", tol=1e-3)
    n, side = sys_.gen.n2, sys_.gen.n1 * sys_.gen.n0
    assert rec.memory["level1_wide"] == 4 * (n - 1) * side**2 * 16


def test_singular_border_is_a_singular_schur_complement():
    # Z_B = 0 and Z_C = 0: the reduced border operator Z_C - Z_B F is exactly 0
    rng = np.random.default_rng(12)
    gen = random_generator(rng, 3, 2, 2, diag_boost=4.0)
    sys_ = BorderedSystem(gen, np.zeros((1, gen.dim)), np.zeros((1, 1)),
                          ArrayProblemSpec(ny=3, nx=2, ne=2, nb=1))
    v = build_excitations(sys_, 0).matrix
    with pytest.raises(SingularSchurComplement):
        schur_solve(sys_, v)
    with pytest.raises(SingularSchurComplement):
        cli.run_method(sys_, v, "rybicki", tol=1e-3)

"""Block bordering recursion and level-1 assembly."""

import tracemalloc

import numpy as np
import pytest

from helpers import block_at, random_complex, random_generator, rel_err
from toepsolve import cli
from toepsolve.errors import ShapeError, SingularBlock, SingularDenominator, SingularSchurComplement
from toepsolve.problems import (
    ArrayProblemSpec,
    BorderedSystem,
    assemble_full,
    build_excitations,
    generate,
)
from toepsolve.solvers import assemble_level1, rybicki_solve, schur_solve
from toepsolve.solvers import rybicki, schur
from toepsolve.solvers.schur import RHS_PANEL
from toepsolve.toeplitz import assemble_dense, circulant_offsets


def random_block_toeplitz(rng, n, side, boost=4.0):
    """Random blocks in decreasing offset order (blocks[k] = R_{n-1-k}), R_0 dominant."""
    blocks = random_complex(rng, 2 * n - 1, side, side)
    blocks[n - 1] += boost * np.eye(side)
    return blocks


def dense_from_blocks(blocks):
    """Block (i, j) is R_{i-j} = blocks[n-1-i+j]."""
    n = (blocks.shape[0] + 1) // 2
    idx = n - 1 - np.arange(n)[:, None] + np.arange(n)[None, :]
    full = blocks[idx]
    side = blocks.shape[1]
    return full.transpose(0, 2, 1, 3).reshape(n * side, n * side)


class TestRybicki:
    def test_single_block_is_plain_solve(self):
        rng = np.random.default_rng(0)
        r0 = random_complex(rng, 5, 5) + 2 * np.eye(5)
        y = random_complex(rng, 5, 2)
        got, _ = rybicki_solve(r0[None], y.copy())
        assert rel_err(got, np.linalg.solve(r0, y)) <= 1e-12

    def test_scalar_blocks_match_dense(self):
        rng = np.random.default_rng(1)
        for n in (2, 6, 17, 32):
            blocks = random_block_toeplitz(rng, n, 1)
            y = random_complex(rng, n)[:, None]
            got, _ = rybicki_solve(blocks, y.copy())
            want = np.linalg.solve(dense_from_blocks(blocks), y)
            assert rel_err(got, want) <= 1e-11

    def test_block_case_residual(self):
        rng = np.random.default_rng(2)
        blocks = random_block_toeplitz(rng, 4, 6)
        # transpose-symmetric pairs, as the synthetic kernel produces
        for off in range(1, 4):
            blocks[3 + off] = blocks[3 - off].T.copy()
        dense = dense_from_blocks(blocks)
        y = random_complex(rng, 24, 3)
        x, _ = rybicki_solve(blocks, y.copy())
        assert np.linalg.norm(dense @ x - y) / np.linalg.norm(y) <= 1e-10

    @pytest.mark.parametrize("n, side, w", [(9, 5, 40), (2, 4, 3)])
    def test_general_blocks_match_dense(self, n, side, w):
        # no R_-k = R_k^T pairing, so a mixed-up window or stack slot shows;
        # n = 2 runs a single stage with no G/H update
        rng = np.random.default_rng(10 + n)
        blocks = random_block_toeplitz(rng, n, side)
        y = random_complex(rng, n * side, w)
        got, _ = rybicki_solve(blocks, y.copy())
        want = np.linalg.solve(dense_from_blocks(blocks), y)
        assert rel_err(got, want) <= 1e-10

    def test_stagewise_leading_subsystem_invariant(self):
        # the leading M-block system of a block-Toeplitz matrix is block-Toeplitz,
        # generated by the blocks of offsets (M-1)..-(M-1), the middle 2M-1 blocks
        rng = np.random.default_rng(3)
        n, side = 5, 3
        blocks = random_block_toeplitz(rng, n, side)
        dense = dense_from_blocks(blocks)
        y = random_complex(rng, n * side, 2)
        for m in range(1, n + 1):
            lead = slice(0, m * side)
            xm, _ = rybicki_solve(blocks[n - m : n - 1 + m], y[lead].copy())
            res = np.linalg.norm(dense[lead, lead] @ xm - y[lead]) / np.linalg.norm(y)
            assert res <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        blocks = random_block_toeplitz(rng, 3, 4)
        y = random_complex(rng, 12)[:, None]
        assert np.array_equal(rybicki_solve(blocks, y.copy())[0], rybicki_solve(blocks, y.copy())[0])

    def test_singular_self_block(self):
        # R_0 = 0, R_1 = R_-1 = I
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[0] = np.eye(2)
        blocks[2] = np.eye(2)
        with pytest.raises(SingularBlock):
            rybicki_solve(blocks, np.ones((4, 1)))

    def test_singular_denominator_reports_step(self):
        # scalars r0 = r1 = r-1 = 1: D1 = r1*r0^-1*r-1 - r0 = 0 at step 1
        blocks = np.ones((3, 1, 1), dtype=complex)
        with pytest.raises(SingularDenominator) as err:
            rybicki_solve(blocks, np.ones((2, 1)))
        assert err.value.step == 1

    def test_c_contiguous_complex128_block_is_solved_in_place(self):
        rng = np.random.default_rng(13)
        blocks = random_block_toeplitz(rng, 5, 3)
        y = random_complex(rng, 15, 4)
        want = np.linalg.solve(dense_from_blocks(blocks), y)
        got, _ = rybicki_solve(blocks, y)
        assert got is y
        assert rel_err(got, want) <= 1e-10

    @pytest.mark.parametrize("form", ["fortran", "strided", "complex64", "float", "read-only"])
    def test_other_blocks_are_copied_and_left_unchanged(self, form):
        rng = np.random.default_rng(14)
        blocks = random_block_toeplitz(rng, 5, 3)
        base = random_complex(rng, 15, 6)
        y = {"fortran": np.asfortranarray(base), "strided": base[:, ::2],
             "complex64": base.astype(np.complex64), "float": base.real.copy(),
             "read-only": base.copy()}[form]
        y.flags.writeable = form != "read-only"
        before = y.copy()
        got, _ = rybicki_solve(blocks, y)
        assert np.array_equal(y, before) and not np.shares_memory(got, y)
        want = np.linalg.solve(dense_from_blocks(blocks), before.astype(np.complex128))
        assert rel_err(got, want) <= (1e-5 if form == "complex64" else 1e-10)

    def test_shape_contracts(self):
        with pytest.raises(ShapeError):
            rybicki_solve(np.ones((4, 2, 2)), np.ones((4, 1)))  # even block count
        with pytest.raises(ShapeError):
            rybicki_solve(np.ones((3, 2, 2)), np.ones((5, 1)))
        with pytest.raises(ShapeError, match="side, side"):
            rybicki_solve(np.ones((3, 2, 3)), np.ones((4, 1)))  # non-square blocks


class TestAssembleLevel1:
    def test_single_column_grid_passthrough(self):
        rng = np.random.default_rng(5)
        gen = random_generator(rng, 4, 1, 3)
        level1 = assemble_level1(gen)
        assert level1.shape == (7, 3, 3)
        for off in circulant_offsets(4):
            assert np.array_equal(level1[3 - off], block_at(gen, off, 0))

    def test_entries_match_generator_blocks(self):
        rng = np.random.default_rng(6)
        gen = random_generator(rng, 3, 3, 2)
        level1 = assemble_level1(gen)
        n0 = 2
        for off in circulant_offsets(3):
            block = level1[2 - off]
            for p in range(3):
                for q in range(3):
                    got = block[p * n0 : (p + 1) * n0, q * n0 : (q + 1) * n0]
                    assert np.array_equal(got, block_at(gen, off, p - q))

    def test_level1_reassembles_to_dense_bitwise(self):
        rng = np.random.default_rng(7)
        gen = random_generator(rng, 3, 4, 2)
        assert np.array_equal(dense_from_blocks(assemble_level1(gen)), assemble_dense(gen))

    def test_storage_count(self):
        gen = random_generator(np.random.default_rng(8), 5, 3, 2)
        assert assemble_level1(gen).size == (2 * 5 - 1) * (3 * 2) ** 2

    def test_block_rows_are_windows_of_one_row_array(self):
        # the blocks lie side by side in one C-contiguous (side, (2N-1)*side) array,
        # and block row i of the level-2 matrix is its window from (N-1-i)*side
        gen = random_generator(np.random.default_rng(9), 4, 3, 2)
        n, side = 4, 6
        level1 = assemble_level1(gen)
        row = level1.transpose(1, 0, 2).reshape(side, -1)
        assert row.flags.c_contiguous and np.shares_memory(row, level1)
        dense = assemble_dense(gen)
        for i in range(n):
            window = row[:, (n - 1 - i) * side : (2 * n - 1 - i) * side]
            assert np.array_equal(window, dense[i * side : (i + 1) * side])

    def test_writes_into_out(self):
        gen = random_generator(np.random.default_rng(23), 4, 3, 2)
        want = assemble_level1(gen)
        out = np.zeros((want.size + 5,), dtype=np.complex128)
        got = assemble_level1(gen, out=out[: want.size])
        assert np.shares_memory(got, out) and np.array_equal(got, want)
        assert not out[want.size :].any()
        strided = np.zeros(2 * want.size, dtype=np.complex128)[::2]
        for bad in (out[: want.size - 1], strided, out[: want.size].real.copy()):
            with pytest.raises(ShapeError):
                assemble_level1(gen, out=bad)


def test_recursion_reads_the_level1_blocks_in_place():
    # beyond y, which it overwrites, the recursion allocates its G and H stacks,
    # two block rows of y and about a dozen blocks (16 allowed); one more copy of
    # the coefficients, 2N-1 blocks, does not fit in that slack
    sys_ = generate(ArrayProblemSpec(ny=12, nx=4, ne=8, nb=0, seed=3))
    n, side, w = sys_.gen.n2, sys_.gen.n1 * sys_.gen.n0, 32
    level1 = assemble_level1(sys_.gen)
    y = random_complex(np.random.default_rng(18), n * side, w)
    stacks = 2 * (n - 1) * side**2 * 16
    slack = (2 * side * w + 16 * side**2) * 16
    assert level1.nbytes > slack
    tracemalloc.start()
    try:
        rybicki_solve(level1, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stacks + slack


def test_schur_reports_rhs_and_stack_bytes():
    sys_ = generate(ArrayProblemSpec(ny=3, nx=4, ne=2, nb=4, seed=7))
    _, rec, _ = cli.run_method(sys_, build_excitations(sys_, 0).matrix, "rybicki", tol=1e-3)
    n, side = sys_.gen.n2, sys_.gen.n1 * sys_.gen.n0
    assert rec.memory["level1"] == (2 * n - 1) * side**2 * 16
    # the feed columns take the inverse's columns, so only Z_B^T, one column per
    # border unknown, rides the recursion
    assert rec.memory["rhs"] == sys_.array_dim * 4 * 16
    # G and H, which end as the first and last block columns of the inverse
    assert rec.memory["stacks"] == 2 * n * side**2 * 16


def test_schur_solve_holds_the_recursion_data_and_a_panel(monkeypatch):
    # each phase of a solve peaks at what it holds plus a few blocks and numpy's
    # ufunc buffers (three operands of getbufsize() elements): the recursion at rhs,
    # the stacks, the solution (allocated first, holding the level-1 blocks, as it is
    # the larger) and two block rows of the right-hand side, the border elimination
    # (the stacks freed) at rhs, the solution and one panel of the array rows; a
    # second block the size of rhs breaks either
    sys_ = generate(ArrayProblemSpec(ny=8, nx=4, ne=8, nb=8, seed=3))
    v = random_complex(np.random.default_rng(15), sys_.dim, 256)
    _, rec, _ = cli.run_method(sys_, v, "rybicki", tol=1e-3)
    side, width = sys_.gen.n1 * sys_.gen.n0, v.shape[1] + sys_.nb
    slack = (8 * side**2 + 3 * np.getbufsize()) * 16
    solution = sys_.dim * v.shape[1] * 16
    recursion = max(rec.memory["level1"], solution) + rec.memory["rhs"] + rec.memory["stacks"] \
        + 2 * side * width * 16
    border = rec.memory["rhs"] + solution + sys_.array_dim * RHS_PANEL * 16
    assert rec.memory["rhs"] > slack
    peaks = []

    def recursion_then_reset_peak(blocks, y):
        solved = rybicki_solve(blocks, y)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return solved

    monkeypatch.setattr(schur, "rybicki_solve", recursion_then_reset_peak)
    tracemalloc.start()
    try:
        schur_solve(sys_, v)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= recursion + slack
    assert peaks[1] <= border + slack


def test_feed_solve_holds_no_second_block_of_the_feeds():
    # the feed columns are solved into the solution itself, so the solve peaks at
    # the level-1 blocks, Z_B^T, the stacks and the solution, plus a few blocks,
    # numpy's ufunc buffers, the walk's (N*side, |Q|) blocks and a bool mask of V_A;
    # a copy of V_A, as the recursion would hold, breaks it
    sys_ = generate(ArrayProblemSpec(ny=24, nx=8, ne=2, nb=8, seed=3))
    v = build_excitations(sys_, 0).matrix
    n, side, adim = sys_.gen.n2, sys_.gen.n1 * sys_.gen.n0, sys_.array_dim
    walk = n * side * sys_.gen.n1 * 16
    slack = (8 * side**2 + 3 * np.getbufsize()) * 16 + 6 * walk + adim * v.shape[1]
    holdings = ((2 * n - 1) * side**2 + adim * sys_.nb + 2 * n * side**2 + sys_.dim * v.shape[1]) * 16
    assert adim * v.shape[1] * 16 > slack
    tracemalloc.start()
    try:
        schur_solve(sys_, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= holdings + slack


def spy_on_level1(monkeypatch):
    """The level-1 arrays ``schur_solve`` assembles, in call order."""
    made, original = [], schur.assemble_level1

    def keeping(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(schur, "assemble_level1", keeping)
    return made


def test_level1_blocks_lie_in_the_solution_when_it_is_larger(monkeypatch):
    # 256 feed columns: the solution is larger than the 2N-1 level-1 blocks, so
    # they are assembled in its bytes, and its writes reuse their pages
    sys_ = generate(ArrayProblemSpec(ny=16, nx=16, ne=2, nb=8, seed=5))
    v = build_excitations(sys_, 0).matrix
    made = spy_on_level1(monkeypatch)
    x, _ = schur_solve(sys_, v)
    assert v.shape[1] == 256 and made[0].nbytes <= x.nbytes
    assert np.shares_memory(made[0], x)
    assert rel_err(x, np.linalg.solve(assemble_full(sys_), v)) <= 1e-12


def test_one_column_solution_owns_exactly_its_bytes(monkeypatch):
    # the level-1 blocks outsize a one-column solution, so they stay an array of
    # their own, and the returned block pins no level-1-sized buffer
    sys_ = generate(ArrayProblemSpec(ny=16, nx=16, ne=2, nb=8, seed=5))
    v = build_excitations(sys_, 0, element=37).matrix
    made = spy_on_level1(monkeypatch)
    x, _ = schur_solve(sys_, v)
    assert x.base is None or x.base.nbytes == x.nbytes
    assert made[0].nbytes > x.nbytes and not np.shares_memory(made[0], x)
    assert rel_err(x, np.linalg.solve(assemble_full(sys_), v)) <= 1e-12


def test_schur_solve_is_deterministic():
    # feed, dense and zero columns in one block, solved twice
    sys_ = generate(ArrayProblemSpec(ny=5, nx=3, ne=2, nb=4, seed=4))
    rng = np.random.default_rng(22)
    v = build_excitations(sys_, 1).matrix * random_complex(rng, sys_.spec.elements)
    v[:, 3] = random_complex(rng, sys_.dim)
    v[: sys_.array_dim, 7] = 0
    assert np.array_equal(schur_solve(sys_, v)[0], schur_solve(sys_, v)[0])


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


@pytest.mark.parametrize("nb", [0, 4])
def test_caller_block_is_left_unchanged(nb):
    # V_A is a view of V, so the recursion must not solve in it
    sys_ = generate(ArrayProblemSpec(ny=3, nx=4, ne=2, nb=nb, seed=7))
    v = random_complex(np.random.default_rng(16), sys_.dim, 70)
    before = v.copy()
    x, _ = schur_solve(sys_, v)
    assert np.array_equal(v, before)
    x_rec, _, _ = cli.run_method(sys_, v, "rybicki", tol=1e-3)
    assert np.array_equal(v, before) and np.array_equal(x_rec, x)
    assert np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v) <= 1e-12


@pytest.mark.parametrize("nb", [0, 4])
def test_record_residual_is_the_dense_residual_over_every_panel(monkeypatch, nb):
    # the record residual is summed over column panels; an error in the last
    # column, past the first panel, must show in it as in the dense residual
    sys_ = generate(ArrayProblemSpec(ny=3, nx=4, ne=2, nb=nb, seed=7))
    v = random_complex(np.random.default_rng(17), sys_.dim, RHS_PANEL + 6)

    def off_in_the_last_column(sys, v):
        x, phases = schur_solve(sys, v)
        x[:, -1] += 1e-3
        return x, phases

    monkeypatch.setattr(cli, "schur_solve", off_in_the_last_column)
    x, rec, _ = cli.run_method(sys_, v, "rybicki", tol=1e-3)
    dense = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
    assert dense > 1e-6
    assert abs(rec.residual - dense) <= 1e-8 * dense


def symmetric_block_toeplitz(rng, n, side):
    """Random blocks with R_-k = R_k^T bitwise, R_0 dominant."""
    blocks = random_block_toeplitz(rng, n, side)
    return blocks + blocks[::-1].transpose(0, 2, 1)


@pytest.mark.parametrize("n, side", [(6, 1), (1, 3), (2, 3), (5, 3)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_end_columns_are_those_of_the_dense_inverse(n, side, symmetric):
    rng = np.random.default_rng(20 + n)
    blocks = (symmetric_block_toeplitz if symmetric else random_block_toeplitz)(rng, n, side)
    inv = np.linalg.inv(dense_from_blocks(blocks))
    y = random_complex(rng, n * side, 2)
    x, ends = rybicki_solve(blocks, y.copy())
    assert rel_err(x, inv @ y) <= 1e-12
    assert rel_err(ends.first, inv[:, :side].reshape(n, side, side)) <= 1e-12
    assert rel_err(ends.last, inv[:, -side:].reshape(n, side, side)) <= 1e-12
    # the final denominators are the negated inverses of the corner blocks
    assert rel_err(ends.d2, -np.linalg.inv(inv[:side, :side])) <= 1e-12
    assert rel_err(ends.d1, -np.linalg.inv(inv[-side:, -side:])) <= 1e-12


@pytest.mark.parametrize("n, side", [(6, 1), (1, 3), (2, 3), (5, 3)])
def test_recurrence_columns_are_those_of_the_dense_inverse(n, side):
    # every column a scaled unit vector, then every other one, each pass with its
    # last column zero; the second pass skips positions and stops short of the last
    # block, and writes only the leading columns of a wider block
    rng = np.random.default_rng(30 + n)
    blocks = symmetric_block_toeplitz(rng, n, side)
    inv = np.linalg.inv(dense_from_blocks(blocks))
    _, ends = rybicki_solve(blocks, np.empty((n * side, 0), dtype=complex))
    alpha = random_complex(rng, n * side)
    va = np.diag(alpha)
    for cols in (np.arange(n * side), np.arange(0, n * side - 1, 2)):
        va[:, cols[-1]] = 0
        out = np.zeros_like(va)
        rybicki.inverse_columns(ends, cols, va[cols, cols], out[:, : cols.size])
        assert rel_err(out[:, : cols.size], inv @ va[:, cols]) <= 1e-12
        assert not out[:, cols.size :].any()


def assert_solved(sys_, v):
    """``schur_solve``'s report, after checking its solution against dense LAPACK."""
    x, report = schur_solve(sys_, v)
    assert rel_err(x, np.linalg.solve(assemble_full(sys_), v)) <= 1e-12
    return report


@pytest.mark.parametrize("spec", [ArrayProblemSpec(ny=1, nx=5, ne=3, nb=4, seed=2),
                                  ArrayProblemSpec(ny=4, nx=3, ne=2, nb=0, seed=2)],
                         ids=["one-row", "no-border"])
def test_feed_columns_take_the_inverse_columns(spec):
    # only Z_B^T rides the recursion: without a border its block has no columns
    sys_ = generate(spec)
    report = assert_solved(sys_, build_excitations(sys_, 1).matrix)
    assert "inverse_columns" in report.phases
    assert report.memory["rhs"] == sys_.array_dim * sys_.nb * 16


def test_scaled_unit_dense_and_zero_columns_in_one_block():
    # one dense column sends the whole block down the recursion route
    sys_ = generate(ArrayProblemSpec(ny=5, nx=3, ne=2, nb=4, seed=4))
    rng = np.random.default_rng(19)
    v = build_excitations(sys_, 1).matrix * random_complex(rng, sys_.spec.elements)
    v[:, 3] = random_complex(rng, sys_.dim)  # dense
    v[: sys_.array_dim, 7] = 0  # V_A zero, V_C not
    v[sys_.array_dim :, [7, 9]] = random_complex(rng, sys_.nb, 2)
    report = assert_solved(sys_, v)
    assert "inverse_columns" not in report.phases
    assert report.memory["rhs"] == sys_.array_dim * (v.shape[1] + sys_.nb) * 16


def test_feed_columns_solve_the_same_on_either_route():
    # the feeds alone take the end columns; with a dense column beside them they
    # ride the recursion
    sys_ = generate(ArrayProblemSpec(ny=5, nx=3, ne=2, nb=4, seed=4))
    rng = np.random.default_rng(23)
    feeds = build_excitations(sys_, 1).matrix * random_complex(rng, sys_.spec.elements)
    x_feed, report = schur_solve(sys_, feeds)
    x_mixed, mixed = schur_solve(sys_, np.hstack([feeds, random_complex(rng, sys_.dim, 1)]))
    assert "inverse_columns" in report.phases and "inverse_columns" not in mixed.phases
    assert rel_err(x_feed, x_mixed[:, :-1]) <= 1e-12


@pytest.mark.parametrize("nb", [0, 4])
def test_a_block_of_no_columns_has_no_columns(nb):
    # a block of no columns takes the feed route and walks no block column
    sys_ = generate(ArrayProblemSpec(ny=4, nx=3, ne=2, nb=nb, seed=2))
    x, report = schur_solve(sys_, np.empty((sys_.dim, 0), dtype=complex))
    assert x.shape == (sys_.dim, 0)
    assert "inverse_columns" in report.phases


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_block_is_refused_before_anything_is_assembled(monkeypatch, value):
    sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=2, nb=4, seed=4))
    v = build_excitations(sys_, 0).matrix
    v[5, 1] = value
    made = spy_on_level1(monkeypatch)
    with pytest.raises(ShapeError, match="inf or NaN"):
        schur_solve(sys_, v)
    assert made == []


@pytest.mark.parametrize("kind", ["symmetric", "general", "one-ulp-off"])
def test_unit_columns_take_the_inverse_columns_only_for_a_symmetric_generator(kind):
    # R_-k = R_k^T must hold bitwise: one ulp off in one entry, and they ride the recursion
    rng = np.random.default_rng(21)
    gen = random_generator(rng, 4, 3, 2, symmetric=kind != "general", diag_boost=6.0)
    if kind == "one-ulp-off":
        gen.blocks[1, 2, 0, 1] += np.spacing(gen.blocks[1, 2, 0, 1].real)
    spec = ArrayProblemSpec(ny=4, nx=3, ne=2, nb=3)
    sys_ = BorderedSystem(gen, random_complex(rng, 3, gen.dim), random_complex(rng, 3, 3) + 4 * np.eye(3),
                          spec)
    v = build_excitations(sys_, 0).matrix
    report = assert_solved(sys_, v)
    routed = kind == "symmetric"
    assert ("inverse_columns" in report.phases) == routed
    assert report.memory["rhs"] == sys_.array_dim * ((0 if routed else v.shape[1]) + 3) * 16

"""Element-block and row-block preconditioners."""

import numpy as np
import pytest
import scipy.linalg

from helpers import block_at, random_complex, rel_err, wrap_generator
from toepsolve import numerics
from toepsolve.errors import ShapeError
from toepsolve.problems import ArrayProblemSpec, BorderedSystem, build_excitations, generate
from toepsolve.solvers import (
    BorderedOperator,
    GmresConfig,
    Preconditioner,
    SchurComplement,
    bordered_matvec,
    build_pk,
    build_pz,
    schur_matvec,
    solve_multi_rhs_vectorized,
)
from toepsolve.toeplitz import assemble_dense_1l


def small_system(**overrides):
    params = dict(ny=3, nx=3, ne=4, nb=8, seed=7)
    params.update(overrides)
    return generate(ArrayProblemSpec(**params))


def block_diag_dense(sys_, side):
    """Dense diag(P', ..., P') oracle over the array rows, for the given segment side."""
    if side == sys_.spec.ne:
        block = block_at(sys_.gen, 0, 0)
    else:
        block = assemble_dense_1l(sys_.gen.blocks[0])
    reps = sys_.array_dim // side
    return scipy.linalg.block_diag(*([block] * reps))


class TestBuildPk:
    def test_segmentwise_action_on_feeds(self):
        sys_ = small_system()
        p = build_pk(sys_)
        v = build_excitations(sys_, 1).matrix[: sys_.array_dim]
        got = p.apply(v)
        ne = sys_.spec.ne
        inverse = p.block_inverse
        for seg in range(9):
            want = inverse @ v[seg * ne : (seg + 1) * ne]
            assert np.array_equal(got[seg * ne : (seg + 1) * ne], want)
        assert inverse.shape == (ne, ne)  # one shared ne x ne inverse

    def test_block_diagonal_system_converges_in_one_iteration(self):
        rng = np.random.default_rng(0)
        ne = 3
        r0 = random_complex(rng, ne, ne) + 2 * np.eye(ne)
        blocks4 = np.zeros((3, 3, ne, ne), dtype=complex)
        blocks4[0, 0] = r0
        gen = wrap_generator(blocks4)
        spec = ArrayProblemSpec(ny=2, nx=2, ne=ne, nb=0, seed=0)
        sys_ = BorderedSystem(gen, np.zeros((0, gen.dim)), np.zeros((0, 0)), spec)
        op = BorderedOperator.from_system(sys_)
        p = build_pk(sys_)
        b = random_complex(rng, gen.dim, 1)
        x, (report,) = solve_multi_rhs_vectorized(
            lambda u: bordered_matvec(op, u), p.apply, b, GmresConfig(tol=1e-12)
        )
        assert report.iterations == 1
        assert rel_err(x, np.linalg.solve(scipy.linalg.block_diag(*[r0] * 4), b)) <= 1e-12

    def test_apply_matches_dense_blockdiag_oracle(self):
        sys_ = small_system()
        p = build_pk(sys_)
        rng = np.random.default_rng(1)
        v = random_complex(rng, sys_.array_dim, 3)
        dense = block_diag_dense(sys_, sys_.spec.ne)
        assert rel_err(p.apply(v), np.linalg.solve(dense, v)) <= 1e-12

    @pytest.mark.parametrize("build, nb", [(build_pk, 8), (build_pz, 8), (build_pk, 0), (build_pz, 0)],
                             ids=["build_pk", "build_pz", "build_pk-nb-0", "build_pz-nb-0"])
    def test_complex64_apply_stays_complex64(self, build, nb):
        # P_A covers the array rows alone, whatever the border
        sys_ = small_system(nb=nb)
        p = build(sys_)
        assert p.array_dim == sys_.array_dim == sys_.dim - nb
        v = random_complex(np.random.default_rng(2), sys_.array_dim, 3)
        dense = block_diag_dense(sys_, p.block_inverse.shape[0])
        complex128_bytes = p.block_inverse.nbytes
        single = numerics.astype(p, np.complex64)
        got = single.apply(v.astype(np.complex64))
        assert got.dtype == np.complex64
        assert rel_err(got, np.linalg.solve(dense, v)) <= 1e-6
        # the complex64 inverse takes half the bytes of the complex128 one
        assert p.block_inverse.nbytes + single.block_inverse.nbytes == complex128_bytes * 3 // 2
        assert numerics.copied_bytes(p, single) == complex128_bytes // 2

    def test_complex64_block_on_complex128_inverses_is_computed_in_complex128(self):
        sys_ = small_system()
        p = build_pk(sys_)
        v = random_complex(np.random.default_rng(3), sys_.array_dim, 3).astype(np.complex64)
        got = p.apply(v)
        assert got.dtype == np.complex128
        assert np.array_equal(got, p.apply(v.astype(np.complex128)))

    def test_stored_bytes(self):
        sys_ = small_system()
        assert build_pk(sys_).block_inverse.nbytes == 4**2 * 16


class TestBuildPz:
    def test_single_column_grid_coincides_with_pk(self):
        sys_ = small_system(nx=1, ny=4)
        pk, pz = build_pk(sys_), build_pz(sys_)
        assert np.array_equal(pk.block_inverse, pz.block_inverse)
        rng = np.random.default_rng(3)
        v = random_complex(rng, sys_.array_dim, 2)
        assert np.array_equal(pk.apply(v), pz.apply(v))

    def test_row_segments_match_dense_blockdiag(self):
        sys_ = small_system(ny=2, nx=3)
        p = build_pz(sys_)
        rng = np.random.default_rng(4)
        v = random_complex(rng, sys_.array_dim, 2)
        dense = block_diag_dense(sys_, sys_.spec.nx * sys_.spec.ne)
        assert rel_err(p.apply(v), np.linalg.solve(dense, v)) <= 1e-12

    def test_pz_first_iteration_beats_pk_on_reference(self):
        # GMRES on S_A, whose right-hand side is V_A when V_C = 0
        sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=8, seed=2024))
        s = SchurComplement.from_system(sys_)
        apply_z = lambda u: schur_matvec(s, u)
        v = build_excitations(sys_, 0).matrix[: sys_.array_dim]
        cfg = GmresConfig(tol=1e-3, max_iter=200)
        _, rk = solve_multi_rhs_vectorized(apply_z, build_pk(sys_).apply, v, cfg)
        _, rz = solve_multi_rhs_vectorized(apply_z, build_pz(sys_).apply, v, cfg)
        # 36 columns: two blocks, each compared on its own
        assert len(rk) == len(rz) == 2
        assert all(z.residual_history[1] <= k.residual_history[1] for k, z in zip(rk, rz))

    def test_stored_bytes(self):
        sys_ = small_system()
        assert build_pz(sys_).block_inverse.nbytes == (3 * 4) ** 2 * 16


@pytest.mark.parametrize("build", [build_pk, build_pz])
def test_stored_inverses_are_c_contiguous_complex128(build):
    # LAPACK's back substitution returns Fortran order; the builders store C order
    p = build(small_system())
    assert p.block_inverse.dtype == np.complex128 and p.block_inverse.flags.c_contiguous


class TestApply:
    def test_inverse_action(self):
        sys_ = small_system()
        p = build_pk(sys_)
        rng = np.random.default_rng(6)
        w = random_complex(rng, sys_.array_dim)[:, None]
        dense = block_diag_dense(sys_, sys_.spec.ne)
        assert rel_err(p.apply(dense @ w), w) <= 1e-12

    def test_shape_error(self):
        sys_ = small_system()
        p = build_pk(sys_)
        with pytest.raises(ShapeError):
            p.apply(np.ones((5, 1)))
        with pytest.raises(ShapeError):  # the bordered system's rows are not the array's
            p.apply(np.ones((sys_.dim, 1)))
        with pytest.raises(ShapeError, match="not divisible by block side 4"):
            Preconditioner(p.block_inverse, p.array_dim + 1)

"""Block GMRES and its convergence bookkeeping."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from helpers import dense_schur, monotone_nonincreasing, random_complex, rel_err
from toepsolve import cli, numerics
from toepsolve.errors import InvalidSpec, NoConvergence, ShapeError
from toepsolve.problems import ArrayProblemSpec, assemble_full, build_excitations, generate
from toepsolve.solvers import (
    BLOCK_WIDTH,
    GmresConfig,
    Preconditioner,
    SchurComplement,
    build_pk,
    gmres,
    schur_matvec,
    solve_multi_rhs_vectorized,
)
from toepsolve.toeplitz import SpectralOperator


def dense_op(a):
    return lambda x: a @ x


def schur_of(sys_):
    """S_A of ``sys_`` with its spectral Z_A, and the pk preconditioner."""
    return SchurComplement.from_system(sys_), build_pk(sys_)


def by_dtype(apply, obj):
    """``apply(obj, u)``, with a complex64 block run on a complex64 copy of ``obj`` formed here."""
    single = numerics.astype(obj, np.complex64)
    return lambda u: apply(single if u.dtype == np.complex64 else obj, u)


class TestGmresCore:
    def test_identity_converges_first_iteration(self):
        b = np.array([[1.0], [2.0], [-1j]])
        x, (report,) = solve_multi_rhs_vectorized(dense_op(np.eye(3)), None, b, GmresConfig(tol=1e-12))
        assert report.iterations == 1
        assert rel_err(x, b) <= 1e-14

    def test_diagonal_two_step_exactness(self):
        a = np.diag([1.0, 2.0])
        x, (report,) = solve_multi_rhs_vectorized(
            dense_op(a), None, np.array([[1.0], [1.0]]), GmresConfig(tol=1e-13)
        )
        assert report.iterations <= 2
        assert np.allclose(x, [[1.0], [0.5]], rtol=1e-12)

    def test_zero_rhs_returns_zero(self):
        x, (report,) = solve_multi_rhs_vectorized(
            dense_op(np.eye(3)), None, np.zeros((3, 1)), GmresConfig(tol=1e-8)
        )
        assert not x.any() and report.converged

    @pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": math.inf}, {"tol": math.nan}, {"max_iter": 0},
                                     {"tol": True}, {"tol": "1e-3"}, {"tol": 1e-3 + 0j},
                                     {"max_iter": 2.5}, {"max_iter": 5.0}, {"max_iter": True}],
                             ids=["tol-0", "tol-inf", "tol-nan", "max_iter-0", "tol-bool", "tol-str",
                                  "tol-complex", "max_iter-2.5", "max_iter-float", "max_iter-bool"])
    def test_config_out_of_range_is_invalid_spec(self, bad):
        with pytest.raises(InvalidSpec):
            GmresConfig(**bad)

    def test_config_is_frozen(self):
        # an assignment would skip every check of __post_init__
        cfg = GmresConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tol = 0.0
        assert cfg == GmresConfig()

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rhs_is_a_shape_error(self, bad):
        b = np.ones((3, 2), dtype=np.complex128)
        b[1, 1] = bad
        with pytest.raises(ShapeError, match="inf or NaN"):
            solve_multi_rhs_vectorized(dense_op(np.eye(3)), None, b, GmresConfig())

    def test_nan_residual_never_reads_as_converged(self):
        # the complex64 basis converges, but the operator gives the complex128 exit
        # residual a NaN column, which must not count as met
        rng = np.random.default_rng(0)
        a = random_complex(rng, 30, 30) + 6 * np.eye(30)
        b = random_complex(rng, 30, 3)

        def op(u):
            out = a @ u
            if u.dtype == np.complex128:
                out[:, 0] = math.nan
            return out

        with pytest.raises(NoConvergence, match="nan") as err:
            solve_multi_rhs_vectorized(op, None, b, GmresConfig(tol=1e-3))
        (report,) = err.value.reports
        assert not report.converged and math.isnan(report.final_residual)

    def test_run_method_rejects_a_fractional_max_iter(self):
        sys_ = generate(ArrayProblemSpec(ny=2, nx=2, ne=2))
        v = build_excitations(sys_).matrix
        with pytest.raises(InvalidSpec, match="max_iter"):
            cli.run_method(sys_, v, "mlfft-pk-vec", 1e-3, max_iter=2.5)
        _, rec, _ = cli.run_method(sys_, v, "mlfft-pk-vec", 1e-3, max_iter=np.int64(5))
        assert rec.ok

    def test_no_convergence_carries_report(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 30, 30) + 2 * np.eye(30)
        b = random_complex(rng, 30, 1)
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_vectorized(dense_op(a), None, b, GmresConfig(tol=1e-14, max_iter=3))
        (report,) = err.value.reports
        assert report.iterations == 3
        assert err.value.solution.shape == (30, 1)
        assert monotone_nonincreasing(report.residual_history)

    def test_residual_history_monotone_and_relative(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 25, 25) + 3 * np.eye(25)
        b = random_complex(rng, 25, 1)
        _, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, b, GmresConfig(tol=1e-10, max_iter=100))
        hist = report.residual_history
        assert hist[0] == 1.0
        assert monotone_nonincreasing(hist)
        assert hist[-1] <= 1e-10


class TestPreconditionedSolve:
    def test_4x4_grid_with_pk(self):
        # GMRES on S_A, whose right-hand side is V_A when V_C = 0
        sys_ = generate(ArrayProblemSpec(ny=4, nx=4, ne=4, seed=9))
        s, p = schur_of(sys_)
        b = build_excitations(sys_, 0).matrix[: sys_.array_dim, :1]
        x, (report,) = solve_multi_rhs_vectorized(
            lambda v: schur_matvec(s, v), p.apply, b, GmresConfig(tol=1e-3, max_iter=200)
        )
        assert np.linalg.norm(dense_schur(sys_) @ x - b) / np.linalg.norm(b) <= 5e-3
        assert report.converged

    def test_padded_circulant_grid_matches_dense_lu(self):
        # 2*7-1 = 13 and 2*9-1 = 17 are not fast FFT lengths; the circulant keeps them
        sys_ = generate(ArrayProblemSpec(ny=7, nx=9, ne=3, seed=5))
        v = build_excitations(sys_, 0).matrix
        x, rec, _ = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-10)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(assemble_full(sys_)), v)
        # 63 columns: blocks of 32 and 31
        assert len(rec.groups) == 2 and all(g.converged for g in rec.groups)
        assert rel_err(x, want) <= 1e-8
        # S_A holds its spectral operator, 13 x 17 blocks of 3 x 3 complex128 (the size of
        # the raw generator), and Z_C^-1; tol 1e-10 runs in complex128, with no copies
        assert rec.precision == "complex128"
        assert rec.memory["schur"] == 13 * 17 * 3 * 3 * 16 + sys_.nb**2 * 16
        assert rec.memory["generator"] == rec.memory["schur"] - sys_.nb**2 * 16

    @pytest.mark.parametrize("method", ["mlfft-pk-vec", "mlfft-pz-vec"])
    def test_record_residual_is_the_true_residual(self, method):
        # 36 columns of unequal norms: blocks of 32 and 4 columns
        sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=2, seed=3))
        v = build_excitations(sys_, 0).matrix * np.linspace(1.0, 8.0, 36)
        x, rec, _ = cli.run_method(sys_, v, method, tol=1e-3)
        want = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
        assert abs(rec.residual - want) <= 1e-12 * want


class TestMultiRhs:
    @pytest.fixture(scope="class")
    def problem(self):
        """The system, S_A and P_A^-1 as callables, V_A and dense S_A (V_C = 0, so V_A is b~)."""
        sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=4, seed=7))
        s, p = schur_of(sys_)
        return (
            sys_,
            lambda u: schur_matvec(s, u),
            p.apply,
            build_excitations(sys_, 0).matrix[: sys_.array_dim],
            dense_schur(sys_),
        )

    def test_single_column_estimate_is_the_true_residual(self, problem):
        _, op, p, v, full = problem
        cfg = GmresConfig(tol=1e-8, max_iter=200)
        x1, (r1,) = solve_multi_rhs_vectorized(op, p, v[:, 0:1], cfg)
        assert np.linalg.norm(full @ x1 - v[:, 0:1]) / np.linalg.norm(v[:, 0]) <= cfg.tol
        # under right preconditioning the last estimate is the true residual
        assert abs(r1.final_residual - r1.residual_history[-1]) <= 1e-6 * r1.final_residual

    def test_stacked_residual_per_column(self, problem):
        _, op, p, v, full = problem
        tol = 1e-3
        x, (report,) = solve_multi_rhs_vectorized(op, p, v, GmresConfig(tol=tol, max_iter=300))
        per_col = np.linalg.norm(full @ x - v, axis=0) / np.linalg.norm(v, axis=0)
        assert per_col.max() <= tol
        assert monotone_nonincreasing(report.residual_history)

    def test_krylov_memory_formulas(self, problem):
        sys_ = problem[0]
        v = build_excitations(sys_, 0).matrix
        _, rv, _ = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-4, max_iter=300)
        # tol 1e-4 keeps a complex64 basis: 8 bytes per scalar, array_dim rows per
        # vector.  The 9-column block's basis is allocated 8 panels (72 rows) deep,
        # and its 4 steps fill 5 panels
        assert rv.precision == "complex64"
        assert rv.memory["krylov"] == rv.groups[0].basis_bytes == 72 * sys_.array_dim * 8
        # 36 columns run as blocks of 32 and 4, and a solve holds one block's basis:
        # the first block's 256 rows (2 steps), not the second's 32 (6 steps)
        w = random_complex(np.random.default_rng(1), sys_.dim, 36)
        _, rw, _ = cli.run_method(sys_, w, "mlfft-pk-vec", tol=1e-4, max_iter=300)
        first, last = (g.basis_bytes for g in rw.groups)
        assert (first, last) == (256 * sys_.array_dim * 8, 32 * sys_.array_dim * 8)
        assert rw.memory["krylov"] == first


class CountingJacobi:
    """Jacobi preconditioner that records the width of every apply."""

    def __init__(self, a):
        self.inverse_diagonal = 1.0 / np.diag(a)
        self.widths = []

    def apply(self, v):
        self.widths.append(v.shape[1])
        return v * self.inverse_diagonal[:, None]


def column_residuals(a, x, v):
    """True relative residual of every nonzero column of v."""
    live = np.linalg.norm(v, axis=0) > 0.0
    return np.linalg.norm(a @ x[:, live] - v[:, live], axis=0) / np.linalg.norm(v[:, live], axis=0)


class TestBlock:
    """Right-preconditioned block GMRES (vec) on the columns of one block."""

    def test_zero_column_stays_zero(self):
        rng = np.random.default_rng(20)
        a = random_complex(rng, 30, 30) + 6 * np.eye(30)
        v = random_complex(rng, 30, 4)
        v[:, 2] = 0.0
        x, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-10))
        assert not x[:, 2].any()
        assert report.converged and report.iterations > 0
        assert column_residuals(a, x, v).max() <= 1e-10

    def test_equal_columns_get_equal_solutions(self):
        rng = np.random.default_rng(21)
        a = random_complex(rng, 30, 30) + 6 * np.eye(30)
        v = random_complex(rng, 30, 3)
        v[:, 1] = v[:, 0]
        x, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-10))
        assert report.converged
        assert rel_err(x[:, 1], x[:, 0]) <= 1e-12
        assert column_residuals(a, x, v).max() <= 1e-10

    def test_invariant_subspace_after_one_step(self):
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(random_complex(rng, 40, 40))
        a = q @ np.diag(np.linspace(1.0, 4.0, 40)) @ q.conj().T
        # the 3 columns span an invariant subspace: A span(V) = span(V)
        v = q[:, :3] @ random_complex(rng, 3, 3)
        x, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-12))
        assert (report.iterations, report.converged) == (1, True)
        assert rel_err(a @ x, v) <= 1e-13

    def test_eigenvector_column_drops_out_and_the_block_goes_on(self):
        # A q0 = q0 keeps column 0 in the first panel's span: its new direction is
        # noise, dropped at step 1, while column 1 needs many more steps
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(random_complex(rng, 40, 40))
        a = q @ np.diag(np.linspace(1.0, 4.0, 40)) @ q.conj().T
        v = np.column_stack([q[:, 0], random_complex(rng, 40)])
        x, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-10))
        assert report.converged and report.iterations > 5
        assert column_residuals(a, x, v).max() <= 1e-10

    def test_basis_grows_under_a_profiler(self):
        # past 8 steps the basis array grows in place; a profile function holds
        # extra references to it, which a reference check would refuse
        rng = np.random.default_rng(26)
        q, _ = np.linalg.qr(random_complex(rng, 60, 60))
        a = q @ np.diag(np.linspace(1.0, 30.0, 60)) @ q.conj().T
        v = random_complex(rng, 60, 2)
        cfg = GmresConfig(tol=1e-10)
        x_plain, (r_plain,) = solve_multi_rhs_vectorized(dense_op(a), None, v, cfg)
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            x_prof, (r_prof,) = solve_multi_rhs_vectorized(dense_op(a), None, v, cfg)
        finally:
            sys.setprofile(None)
        assert events and r_prof.iterations > 8
        assert np.array_equal(x_prof, x_plain) and r_prof.iterations == r_plain.iterations
        assert column_residuals(a, x_prof, v).max() <= 1e-10

    def test_none_preconditioner_matches_the_identity(self):
        rng = np.random.default_rng(24)
        a = random_complex(rng, 30, 30) + 6 * np.eye(30)
        v = random_complex(rng, 30, 5)
        cfg = GmresConfig(tol=1e-10)
        x_none, (r_none,) = solve_multi_rhs_vectorized(dense_op(a), None, v, cfg)
        x_eye, (r_eye,) = solve_multi_rhs_vectorized(dense_op(a), lambda u: u.copy(), v, cfg)
        assert np.array_equal(x_none, x_eye)
        assert r_none.residual_history == r_eye.residual_history
        assert column_residuals(a, x_none, v).max() <= 1e-10

    def test_guard_runs_another_cycle_when_complex64_misleads(self):
        # the operator is off by E in its complex64 products only, so the Arnoldi
        # estimates meet tol on A + E; the complex128 exit residual on A does not
        rng = np.random.default_rng(25)
        a = random_complex(rng, 40, 40) + 20 * np.eye(40)
        e = 1e-2 * random_complex(rng, 40, 40)
        seen = []

        def op(u):
            seen.append(u.dtype)
            out = a @ u if u.dtype == np.complex128 else (a + e) @ u
            return out.astype(u.dtype)

        v = random_complex(rng, 40, 3)
        x, (report,) = solve_multi_rhs_vectorized(op, None, v, GmresConfig(tol=1e-4))
        exits = [i for i, dtype in enumerate(seen) if dtype == np.complex128]
        # more than one cycle, each ending in its exit residual
        assert len(exits) >= 2 and exits[-1] == len(seen) - 1
        assert report.iterations == len(seen) - len(exits)
        assert report.converged
        assert column_residuals(a, x, v).max() <= 1e-4

    def test_operator_may_keep_its_inputs(self):
        # the basis grows in place past its first 8 panels, which a kept view of
        # it would forbid
        rng = np.random.default_rng(28)
        a = random_complex(rng, 200, 200) + 30 * np.eye(200)
        kept = []

        def op(u):
            kept.append(u)
            return a @ u

        v = random_complex(rng, 200, 4)
        x, (report,) = solve_multi_rhs_vectorized(op, None, v, GmresConfig(tol=1e-12))
        assert report.converged and report.iterations > 8
        assert column_residuals(a, x, v).max() <= 1e-12
        # an operator that returns its input: orthogonalizing its output must not
        # write into the basis
        x, (report,) = solve_multi_rhs_vectorized(lambda u: u, None, v, GmresConfig(tol=1e-12))
        assert (report.iterations, report.converged) == (1, True)
        assert rel_err(x, v) <= 1e-14

    def test_blocks_of_the_sequential_constant(self):
        rng = np.random.default_rng(26)
        a = random_complex(rng, 300, 300) + np.diag(np.linspace(60.0, 300.0, 300))
        p = CountingJacobi(a)
        v = random_complex(rng, 300, 70)
        x, reports = solve_multi_rhs_vectorized(dense_op(a), p.apply, v, GmresConfig(tol=1e-8))
        # 70 columns: blocks of 32, 32 and 6, one after another; each applies
        # P^-1 once per step and once to form its iterate
        assert BLOCK_WIDTH == 32 and len(reports) == 3
        widths = [32] * (reports[0].iterations + 1) + [32] * (reports[1].iterations + 1)
        assert p.widths == widths + [6] * (reports[2].iterations + 1)
        assert column_residuals(a, x, v).max() <= 1e-8

    def test_zero_block_takes_no_step(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 40, 40) + 6 * np.eye(40)
        v = random_complex(rng, 40, BLOCK_WIDTH + 2)
        v[:, BLOCK_WIDTH:] = 0.0
        x, (first, zero) = solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-10))
        # a block of zero columns is solved by x = 0
        assert not x[:, BLOCK_WIDTH:].any()
        assert (zero.iterations, zero.converged, zero.residual_history) == (0, True, [0.0])
        assert zero.final_residual == 0.0
        assert first.iterations > 0
        assert column_residuals(a, x, v).max() <= 1e-10

    def test_tol_of_one_is_met_at_zero(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 12, 12) + 4 * np.eye(12)
        x, (report,) = solve_multi_rhs_vectorized(dense_op(a), None, random_complex(rng, 12, 3),
                                                  GmresConfig(tol=1.0))
        assert not x.any()
        assert (report.iterations, report.converged, report.residual_history) == (0, True, [1.0])

    def test_mixed_convergence_raises_with_every_report(self):
        # 65 columns of 40 unknowns: a block of 32 that spans R^40 within two steps,
        # a block of zero columns and a one-column block that needs more than 4 steps
        rng = np.random.default_rng(7)
        a = random_complex(rng, 40, 40) + 6 * np.eye(40)
        v = random_complex(rng, 40, 2 * BLOCK_WIDTH + 1)
        v[:, BLOCK_WIDTH : 2 * BLOCK_WIDTH] = 0.0
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_vectorized(dense_op(a), None, v, GmresConfig(tol=1e-12, max_iter=4))
        reports = err.value.reports
        assert [r.converged for r in reports] == [True, True, False]
        assert [r.iterations for r in reports] == [2, 0, 4]
        # the iterate holds every block, the converged ones solved
        x = err.value.solution
        assert x.shape == v.shape
        assert column_residuals(a, x[:, : 2 * BLOCK_WIDTH], v[:, : 2 * BLOCK_WIDTH]).max() <= 1e-12
        assert column_residuals(a, x[:, -1:], v[:, -1:]).max() > 1e-12

    def test_preconditioner_applied_once_per_step(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 30, 30) + 8 * np.eye(30)
        p = CountingJacobi(a)
        v = random_complex(rng, 30, 5)
        _, (report,) = solve_multi_rhs_vectorized(dense_op(a), p.apply, v, GmresConfig(tol=1e-8))
        # one cycle: P^-1 once per step and once to form the iterate
        assert p.widths == [5] * (report.iterations + 1)
        # an operator that is off in complex64 only makes the guard run more cycles
        e = 1e-2 * random_complex(rng, 30, 30)
        exits = []

        def op(u):
            exits.append(u.dtype == np.complex128)
            return (a @ u if exits[-1] else (a + e) @ u).astype(u.dtype)

        p.widths.clear()
        _, (report,) = solve_multi_rhs_vectorized(op, lambda u: p.apply(u).astype(u.dtype), v,
                                                  GmresConfig(tol=1e-4))
        # each cycle ends in one exit residual: P^-1 once per step and once per cycle
        assert sum(exits) >= 2 and len(p.widths) == report.iterations + sum(exits)

    def test_panel_qr_drops_dependent_directions(self):
        rng = np.random.default_rng(27)
        w = random_complex(rng, 50, 5)
        w[:, 2] = w[:, 0]
        w[:, 3] = 0.0
        # column 4 was of norm 10 before orthogonalization left 1e-12 of it: noise
        w[:, 4] *= 1e-12
        scale = np.linalg.norm(w, axis=0)
        scale[4] = 10.0
        q, r = gmres._panel_qr(w, scale, np.dtype(np.complex128))
        # two directions kept: q (50, 2) orthonormal, r (2, 5)
        assert q.shape == (50, 2) and r.shape == (2, 5)
        assert rel_err(q @ r, w) <= 1e-12
        assert np.allclose(q.conj().T @ q, np.eye(2), rtol=0, atol=1e-14)
        # the noise column is dropped even where its Gram matrix is well conditioned
        q, r = gmres._panel_qr(w[:, [0, 4]], scale[[0, 4]], np.dtype(np.complex128))
        assert q.shape == (50, 1) and r.shape == (1, 2)
        # a well-conditioned panel takes the Cholesky QR and keeps every column
        q, r = gmres._panel_qr(w[:, :2].astype(np.complex64), scale[:2], np.dtype(np.complex64))
        assert q.dtype == np.complex64 and q.shape == (50, 2)
        assert rel_err(q @ r, w[:, :2]) <= 1e-6


def dense_back_substitute(r_cols, starts, g):
    """The reference: R assembled as one dense triangle and solved at once."""
    m = starts[len(r_cols)]
    t = np.zeros((m, m), dtype=np.complex128)
    for j, rc in enumerate(r_cols):
        t[: len(rc), starts[j] : starts[j + 1]] = rc
    return scipy.linalg.solve_triangular(t, np.concatenate(g))


class TestBackSubstitution:
    """The cycle's blockwise solve of R y = G against the dense assembled triangle."""

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "zero-pivot"])
    def test_blockwise_matches_the_dense_triangle(self, monkeypatch, singular):
        rng = np.random.default_rng(29)
        a = random_complex(rng, 60, 60) + 8 * np.eye(60)
        b = random_complex(rng, 60, 4)
        if singular:
            # A e_0 = 0 and e_0 is the first basis vector, so the first column of
            # the reduced Hessenberg is exactly zero
            a[:, 0] = 0.0
            b[:, 0] = np.eye(60)[:, 0]
        pivots = []  # R's pivots as each call of the back substitution receives them
        blockwise = gmres._back_substitute

        def recording(r_cols, starts, g):
            pivots.append(np.concatenate([rc[starts[j] : starts[j + 1]].diagonal()
                                          for j, rc in enumerate(r_cols)]))
            return blockwise(r_cols, starts, g)

        def cycle():
            return gmres._block_cycle(dense_op(a), lambda u: u, b, np.linalg.norm(b, axis=0), 3,
                                      1e-14, np.dtype(np.complex128))

        monkeypatch.setattr(gmres, "_back_substitute", recording)
        z, estimates, _ = cycle()
        monkeypatch.setattr(gmres, "_back_substitute", dense_back_substitute)
        z_dense, estimates_dense, _ = cycle()
        assert len(estimates) == 3 and estimates == estimates_dense
        # the cycle sets R's zero pivot to 1 as it forms R: none reaches the solve
        (received,) = pivots
        assert np.all(received != 0.0)
        if singular:
            assert received[0] == 1.0
        assert np.all(np.isfinite(z))
        assert rel_err(z, z_dense) <= 1e-12

    def test_reads_its_inputs_and_writes_none(self):
        # read-only inputs: a write, even of no entries, raises instead of passing unseen
        rng = np.random.default_rng(31)
        starts = [0, 3, 5, 9]
        r = np.triu(random_complex(rng, 9, 9)) + 4 * np.eye(9)
        r_cols = [r[:k, k0:k] for k0, k in zip(starts, starts[1:])]
        g = [random_complex(rng, k - k0, 2) for k0, k in zip(starts, starts[1:])]
        before = [a.copy() for a in r_cols + g]
        for a in r_cols + g:
            a.flags.writeable = False
        y = gmres._back_substitute(r_cols, starts, g)
        assert all(np.array_equal(a, b) for a, b in zip(r_cols + g, before))
        assert rel_err(y, dense_back_substitute(r_cols, starts, g)) <= 1e-12

    def test_zero_pivot_leaves_an_honest_estimate(self):
        # A e_0 = 0 and A e_1 = e_0, so the reduced Hessenberg meets an exactly zero
        # pivot, which the cycle sets to 1; the row it leaves unsolved must
        # count in the estimate, which read 0 against a true residual of 2e14
        rng = np.random.default_rng(0)
        a = random_complex(rng, 30, 30)
        a[:, 0], a[:, 1] = 0.0, np.eye(30)[:, 0]
        b = np.column_stack([np.eye(30)[:, 0], random_complex(rng, 30)])
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_vectorized(dense_op(a), None, b, GmresConfig(tol=1e-10, max_iter=30))
        (report,) = err.value.reports
        x = err.value.solution
        worst = (np.linalg.norm(a @ x - b, axis=0) / np.linalg.norm(b, axis=0)).max()
        assert worst / 2 <= report.residual_history[-1] <= 2 * worst


class TestPrecision:
    """tol picks the Krylov basis dtype; the exit residual is always complex128."""

    @pytest.mark.parametrize("tol, arnoldi", [
        (1e-3, np.complex64),
        (gmres.SINGLE_PRECISION_TOL, np.complex64),
        (gmres.SINGLE_PRECISION_TOL / 10, np.complex128),
    ], ids=["1e-3", "at-threshold", "below-threshold"])
    def test_arnoldi_dtype_follows_tol(self, tol, arnoldi):
        rng = np.random.default_rng(40)
        a = random_complex(rng, 12, 12) + 6.0 * np.eye(12)
        b = random_complex(rng, 12, 3)
        seen = {"op": [], "p": []}

        def recording(name, matrix):
            def apply(u):
                seen[name].append(u.dtype)
                return (matrix @ u).astype(u.dtype)  # computes in the dtype it receives
            return apply

        inverse_diagonal = np.diag(1.0 / np.diag(a))
        x, (report,) = solve_multi_rhs_vectorized(recording("op", a), recording("p", inverse_diagonal),
                                                  b, GmresConfig(tol=tol))
        assert GmresConfig(tol=tol).basis_dtype == arnoldi
        # one preconditioner and one operator apply per block Arnoldi step, on the
        # newest basis panel, then P^-1 (V Y) and the exit residual A x
        assert seen["p"][:-1] == [arnoldi] * (len(seen["p"]) - 1) and len(seen["p"]) > 1
        assert seen["p"][-1] == np.complex128
        assert seen["op"][:-1] == [arnoldi] * (len(seen["op"]) - 1)
        assert seen["op"][-1] == np.complex128
        assert x.dtype == np.complex128
        # final_residual is the complex128 true residual of the returned iterate
        true = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert np.isclose(report.final_residual, true, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tol, precision", [
        (gmres.SINGLE_PRECISION_TOL, "complex64"),
        (9.99e-6, "complex128"),
    ], ids=["at-threshold", "just-below"])
    def test_threshold_holds_on_a_weakly_shifted_problem(self, tol, precision):
        # the threshold was swept on the default problem; a diagonal shift of 0.1
        # is harder (29 complex64 steps against 20 in complex128), and every
        # column must still meet tol in the dense true residual
        sys_ = generate(ArrayProblemSpec(ny=12, nx=12, ne=8, diagonal_shift=0.1))
        v = build_excitations(sys_, 0).matrix[:, :BLOCK_WIDTH]
        x, rec, reports = cli.run_method(sys_, v, "mlfft-pk-vec", tol)
        assert rec.precision == precision and all(r.converged for r in reports)
        residual = np.linalg.norm(assemble_full(sys_) @ x - v, axis=0) / np.linalg.norm(v, axis=0)
        assert residual.max() <= tol

    def test_basis_stays_complex64_when_the_operator_widens(self):
        # like gmres-dense's complex128 matrix, this operator returns complex128
        # whatever it is given; the next basis vector must still be complex64
        rng = np.random.default_rng(41)
        a = random_complex(rng, 12, 12) + 6.0 * np.eye(12)
        seen = []

        def op(u):
            seen.append(u.dtype)
            return a @ u

        solve_multi_rhs_vectorized(op, None, random_complex(rng, 12, 2), GmresConfig(tol=1e-3))
        assert len(seen) > 2 and seen[:-1] == [np.complex64] * (len(seen) - 1)

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    @pytest.mark.parametrize("method", ["mlfft-pk-vec", "mlfft-pz-vec", "gmres-dense"])
    def test_run_method_runs_each_block_on_the_copy_of_its_dtype(self, monkeypatch, method, tol):
        # the operators compute in numpy's promoted dtype, so this routing alone keeps
        # a complex64 block, and its products, in complex64; gmres-dense's S_A holds
        # the dense complex128 Z_A and border whatever the block
        seen = []

        def spy(name, apply, held):
            def call(obj, u):
                seen.append((name, u.dtype, {a.dtype for a in held(obj)}))
                return apply(obj, u)
            return call

        def schur_arrays(s):
            za = s.za.diag_blocks if isinstance(s.za, SpectralOperator) else s.za
            return za, s.zb, s.zc_inverse

        monkeypatch.setattr(cli, "schur_matvec", spy("S_A", schur_matvec, schur_arrays))
        monkeypatch.setattr(Preconditioner, "apply",
                            spy("P_A", Preconditioner.apply, lambda p: (p.block_inverse,)))
        sys_ = generate(ArrayProblemSpec(ny=4, nx=4, ne=4))
        cli.run_method(sys_, build_excitations(sys_, 0).matrix, method, tol)
        assert {name for name, _, _ in seen} == {"S_A", "P_A"}
        dense = method == "gmres-dense"
        assert all(held == ({np.dtype(np.complex128)} if dense and name == "S_A" else {block})
                   for name, block, held in seen)
        # complex64 Arnoldi steps at tol 1e-3, and the complex128 iterate and exit residual
        want = {"complex64", "complex128"} if tol == 1e-3 else {"complex128"}
        assert {block.name for _, block, _ in seen} == want

    def test_complex64_basis_cuts_the_peak(self, monkeypatch):
        # one 32-column block of a 12x12 grid, on an operator and a preconditioner
        # built beforehand, with their complex64 copies: the peak is the solve's
        # working set, whose largest part is the Krylov basis
        sys_ = generate(ArrayProblemSpec(ny=12, nx=12, ne=8))
        v = build_excitations(sys_, 0).matrix[: sys_.array_dim, :BLOCK_WIDTH]
        s, pk = schur_of(sys_)
        op, p = by_dtype(schur_matvec, s), by_dtype(Preconditioner.apply, pk)

        def peak():
            tracemalloc.start()
            try:
                _, (report,) = solve_multi_rhs_vectorized(op, p, v, GmresConfig(tol=1e-3))
                return tracemalloc.get_traced_memory()[1], report
            finally:
                tracemalloc.stop()

        single, rep64 = peak()
        monkeypatch.setattr(gmres, "SINGLE_PRECISION_TOL", 1.0)  # tol 1e-3 is now below it
        assert GmresConfig(tol=1e-3).basis_dtype == np.complex128
        double, rep128 = peak()
        assert rep64.iterations == rep128.iterations
        assert single <= 0.75 * double

    def test_working_set_is_the_basis_and_panel_scratch(self):
        # one 32-column block of a 12x12 grid, on an operator and a preconditioner
        # built beforehand, with their complex64 copies: beside the basis the solve
        # holds its iterate, residual and output, and panel-sized scratch, 7.8 times
        # the output's bytes on S_A, under the bound of 10
        sys_ = generate(ArrayProblemSpec(ny=12, nx=12, ne=8))
        v = build_excitations(sys_, 0).matrix[: sys_.array_dim, :BLOCK_WIDTH]
        s, pk = schur_of(sys_)
        op, p = by_dtype(schur_matvec, s), by_dtype(Preconditioner.apply, pk)
        tracemalloc.start()
        try:
            x, (report,) = solve_multi_rhs_vectorized(op, p, v, GmresConfig(tol=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        basis = report.iterations * BLOCK_WIDTH * sys_.array_dim * 8  # complex64
        assert peak - basis <= 10 * x.nbytes

    def test_overwrite_rhs_drops_the_solution_block_from_the_peak(self):
        # 512 random columns of a 6x6 grid (ne 4), on an operator and a
        # preconditioner built beforehand: the solution block is most of the
        # default solve's peak, and the permission to overwrite rhs removes it
        sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=4))
        rhs = random_complex(np.random.default_rng(7), sys_.array_dim, 512)
        s, pk = schur_of(sys_)
        op, p = by_dtype(schur_matvec, s), by_dtype(Preconditioner.apply, pk)

        def peak(b, **kwargs):
            tracemalloc.start()
            try:
                x, _ = solve_multi_rhs_vectorized(op, p, b, GmresConfig(tol=1e-3), **kwargs)
                return tracemalloc.get_traced_memory()[1], x
            finally:
                tracemalloc.stop()

        default, x = peak(rhs)
        b = rhs.copy()
        overwrite, x_over = peak(b, overwrite_rhs=True)
        assert x_over is b and x_over.tobytes() == x.tobytes()
        assert overwrite <= default - 0.9 * rhs.nbytes

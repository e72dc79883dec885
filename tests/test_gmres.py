"""GMRES core, global-Krylov multi-RHS and convergence bookkeeping."""

import math

import numpy as np
import pytest
import scipy.linalg

from helpers import monotone_nonincreasing, random_complex, rel_err
from toepsolve import cli
from toepsolve.errors import InvalidSpec, NoConvergence
from toepsolve.problems import ArrayProblemSpec, assemble_full, build_excitations, generate
from toepsolve.solvers import (
    SEQUENTIAL_BLOCK,
    BorderedOperator,
    GmresConfig,
    bordered_matvec,
    build_pk,
    solve_multi_rhs_sequential,
    solve_multi_rhs_vectorized,
)


def dense_op(a):
    return lambda x: a @ x


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

    @pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": math.inf}, {"tol": math.nan}, {"max_iter": 0}],
                             ids=["tol-0", "tol-inf", "tol-nan", "max_iter-0"])
    def test_config_out_of_range_is_invalid_spec(self, bad):
        with pytest.raises(InvalidSpec):
            GmresConfig(**bad)

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
        sys_ = generate(ArrayProblemSpec(ny=4, nx=4, ne=4, seed=9))
        op = BorderedOperator.from_system(sys_)
        p = build_pk(sys_)
        b = build_excitations(sys_, 0).matrix[:, :1]
        x, (report,) = solve_multi_rhs_vectorized(
            lambda v: bordered_matvec(op, v), p.apply, b, GmresConfig(tol=1e-3, max_iter=200)
        )
        full = assemble_full(sys_)
        assert np.linalg.norm(full @ x - b) / np.linalg.norm(b) <= 5e-3
        assert report.converged

    def test_padded_circulant_grid_matches_dense_lu(self):
        # 2*7-1 = 13 and 2*9-1 = 17 embed at the fast lengths 14 and 18
        sys_ = generate(ArrayProblemSpec(ny=7, nx=9, ne=3, seed=5))
        v = build_excitations(sys_, 0).matrix
        x, rec, _ = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-10)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(assemble_full(sys_)), v)
        (group,) = rec.groups
        assert group.converged
        assert rel_err(x, want) <= 1e-8
        # the spectral operator GMRES holds: 14 x 18 blocks of 3 x 3 complex128
        assert rec.memory["spectral"] == 14 * 18 * 3 * 3 * 16
        # next to the raw generator: 13 x 17 blocks of 3 x 3
        assert rec.memory["generator"] == 13 * 17 * 3 * 3 * 16

    @pytest.mark.parametrize("method", ["mlfft-pk-vec", "mlfft-pk-seq", "mlfft-pz-seq"])
    def test_record_residual_is_the_true_residual(self, method):
        # 36 columns of unequal norms: two sequential blocks
        sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=2, seed=3))
        v = build_excitations(sys_, 0).matrix * np.linspace(1.0, 8.0, 36)
        x, rec, _ = cli.run_method(sys_, v, method, tol=1e-3)
        want = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
        assert abs(rec.residual - want) <= 1e-12 * want

    def test_sequential_record_krylov_is_the_largest_block(self):
        sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=2, seed=3))
        v = build_excitations(sys_, 0).matrix
        _, rec, _ = cli.run_method(sys_, v, "mlfft-pk-seq", tol=1e-3)
        op = BorderedOperator.from_system(sys_)
        _, reports = solve_multi_rhs_sequential(
            lambda u: bordered_matvec(op, u), build_pk(sys_).apply, v, GmresConfig(tol=1e-3, max_iter=2000)
        )
        its = [r.iterations for r in reports]
        assert len(its) == 36
        assert rec.memory["krylov"] == max(sum(its[:32]), sum(its[32:])) * sys_.dim * 16


class TestMultiRhs:
    @pytest.fixture(scope="class")
    def problem(self):
        """The system, its operator and preconditioner as callables, V and dense Z."""
        sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=4, seed=7))
        op = BorderedOperator.from_system(sys_)
        return (
            sys_,
            lambda u: bordered_matvec(op, u),
            build_pk(sys_).apply,
            build_excitations(sys_, 0).matrix,
            assemble_full(sys_),
        )

    def test_single_column_vectorized_identical_to_sequential(self, problem):
        _, op, p, v, _ = problem
        cfg = GmresConfig(tol=1e-8, max_iter=200)
        x1, (r1,) = solve_multi_rhs_vectorized(op, p, v[:, 0:1], cfg)
        x2, reports = solve_multi_rhs_sequential(op, p, v[:, 0:1], cfg)
        assert np.array_equal(x1, x2)
        assert reports[0].residual_history == r1.residual_history

    def test_stacked_residual_per_column(self, problem):
        _, op, p, v, full = problem
        tol = 1e-3
        x, (report,) = solve_multi_rhs_vectorized(op, p, v, GmresConfig(tol=tol, max_iter=300))
        per_col = np.linalg.norm(full @ x - v, axis=0) / np.linalg.norm(v, axis=0)
        assert per_col.max() <= 10 * tol
        assert monotone_nonincreasing(report.residual_history)

    def test_krylov_memory_formulas(self, problem):
        sys_, _, _, v, _ = problem
        _, rv, _ = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-4, max_iter=300)
        m = v.shape[1]
        assert rv.memory["krylov"] == rv.iterations * m * sys_.dim * 16
        _, rs, _ = cli.run_method(sys_, v, "mlfft-pk-seq", tol=1e-4, max_iter=300)
        # the 9 columns run as one lockstep block, which holds every column's basis
        assert rs.memory["krylov"] == sum(g.iterations for g in rs.groups) * sys_.dim * 16
        assert rs.memory["krylov"] < rv.memory["krylov"]

    def test_sequential_agrees_with_vectorized(self, problem):
        _, op, p, v, full = problem
        tol = 1e-4
        cfg = GmresConfig(tol=tol, max_iter=300)
        xv, _ = solve_multi_rhs_vectorized(op, p, v, cfg)
        xs, _ = solve_multi_rhs_sequential(op, p, v, cfg)
        col_diff = np.linalg.norm(xv - xs, axis=0) / np.linalg.norm(xs, axis=0)
        assert col_diff.max() <= 10 * tol

    def test_sequential_collects_failures(self, problem):
        _, op, p, v, _ = problem
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_sequential(op, p, v, GmresConfig(tol=1e-14, max_iter=2))
        assert len(err.value.reports) == v.shape[1]
        assert err.value.solution.shape == v.shape


class CountingJacobi:
    """Jacobi preconditioner that records the width of every apply."""

    def __init__(self, a):
        self.inverse_diagonal = 1.0 / np.diag(a)
        self.widths = []

    def apply(self, v):
        self.widths.append(v.shape[1])
        return v * self.inverse_diagonal[:, None]


def solve_sequential(op, p, v, cfg):
    """Sequential solve returning (solution, reports) whether or not it converged."""
    try:
        return solve_multi_rhs_sequential(op, p, v, cfg)
    except NoConvergence as err:
        return err.solution, err.reports


def assert_matches_alone(op, p, v, cfg):
    """Every column of a lockstep solve equals the column solved alone."""
    x, reports = solve_sequential(op, p, v, cfg)
    assert len(reports) == v.shape[1]
    for col, rep in enumerate(reports):
        x_alone, (alone,) = solve_sequential(op, p, v[:, col : col + 1], cfg)
        assert rep.iterations == alone.iterations
        assert rep.converged == alone.converged
        assert rel_err(x[:, col], x_alone[:, 0]) <= 1e-12
    return x, reports


class TestLockstep:
    def test_columns_converge_at_different_steps(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(random_complex(rng, 40, 40))
        a = q @ np.diag(np.linspace(1.0, 4.0, 40)) @ q.conj().T
        # a column in an m-dimensional invariant subspace converges by step m
        v = np.column_stack([q[:, :m] @ random_complex(rng, m) for m in (14, 2, 9, 5)])
        _, reports = assert_matches_alone(dense_op(a), None, v, GmresConfig(tol=1e-10))
        its = [r.iterations for r in reports]
        assert len(set(its)) == 4 and max(its) <= 14

    def test_zero_column(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 30, 30) + 6 * np.eye(30)
        v = random_complex(rng, 30, 3)
        v[:, 1] = 0.0
        x, reports = assert_matches_alone(dense_op(a), None, v, GmresConfig(tol=1e-10))
        zero = reports[1]
        assert not x[:, 1].any()
        assert (zero.iterations, zero.converged, zero.residual_history) == (0, True, [0.0])
        assert zero.final_residual == 0.0
        assert reports[0].iterations > 0

    @staticmethod
    def _split_operator(rng, n):
        """Random operator with e_0 as an exact invariant subspace."""
        a = random_complex(rng, n, n) + 6 * np.eye(n)
        a[0, 1:] = 0.0
        a[1:, 0] = 0.0
        return a

    def test_breakdown_column(self):
        rng = np.random.default_rng(5)
        a = self._split_operator(rng, 30)
        v = random_complex(rng, 30, 3)
        v[:, 2] = 0.0
        v[0, 2] = 2.0  # A e_0 is parallel to e_0: hnext = 0 at the first step
        x, reports = assert_matches_alone(dense_op(a), None, v, GmresConfig(tol=1e-12))
        assert reports[2].iterations == 1 and reports[2].converged
        assert rel_err(a @ x[:, 2], v[:, 2]) <= 1e-15
        assert min(reports[0].iterations, reports[1].iterations) > 1

    def test_blocks_of_the_sequential_constant(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 40, 40) + np.diag(np.linspace(6.0, 30.0, 40))
        p = CountingJacobi(a)
        v = random_complex(rng, 40, 70)
        assert SEQUENTIAL_BLOCK == 32
        _, reports = assert_matches_alone(dense_op(a), p.apply, v, GmresConfig(tol=1e-8))
        # the lockstep solve ran first: one apply per block start and per step
        widths = p.widths[: len(p.widths) - sum(1 + r.iterations for r in reports)]
        its = [r.iterations for r in reports]
        blocks = [its[i : i + SEQUENTIAL_BLOCK] for i in range(0, 70, SEQUENTIAL_BLOCK)]
        assert [len(b) for b in blocks] == [32, 32, 6]
        assert len(widths) == sum(1 + max(b) for b in blocks)
        assert max(widths) == SEQUENTIAL_BLOCK

    def test_step_cap_message_gives_the_iterations_run(self):
        # full GMRES on n = 12 unknowns stops after 12 steps, far below max_iter
        rng = np.random.default_rng(10)
        a = random_complex(rng, 12, 12) + 4 * np.eye(12)
        v = random_complex(rng, 12, 3)
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_sequential(dense_op(a), None, v, GmresConfig(tol=1e-18, max_iter=2000))
        assert [r.iterations for r in err.value.reports] == [12, 12, 12]
        assert not any(r.converged for r in err.value.reports)
        assert "12" in str(err.value) and "2000" not in str(err.value)
        assert rel_err(a @ err.value.solution, v) <= 1e-12

    @pytest.mark.parametrize("solve", [solve_multi_rhs_vectorized, solve_multi_rhs_sequential])
    def test_tol_of_one_is_met_at_zero(self, solve):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 12, 12) + 4 * np.eye(12)
        x, reports = solve(dense_op(a), None, random_complex(rng, 12, 3), GmresConfig(tol=1.0))
        assert not x.any()
        assert all((r.iterations, r.converged, r.residual_history) == (0, True, [1.0])
                   for r in reports)

    def test_mixed_convergence_raises_with_every_report(self):
        rng = np.random.default_rng(7)
        a = self._split_operator(rng, 30)
        v = random_complex(rng, 30, 3)
        v[:, 0] = 0.0
        v[0, 0] = 1.0  # converges at step 1
        v[:, 1] = 0.0  # converges at step 0
        cfg = GmresConfig(tol=1e-12, max_iter=4)
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_sequential(dense_op(a), None, v, cfg)
        assert [r.converged for r in err.value.reports] == [True, True, False]
        assert [r.iterations for r in err.value.reports] == [1, 0, 4]
        assert rel_err(a @ err.value.solution[:, :2], v[:, :2]) <= 1e-15
        assert_matches_alone(dense_op(a), None, v, cfg)

    def test_preconditioner_applied_once_per_step(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 30, 30) + 8 * np.eye(30)
        p = CountingJacobi(a)
        v = random_complex(rng, 30, 5)
        _, (report,) = solve_multi_rhs_vectorized(dense_op(a), p.apply, v, GmresConfig(tol=1e-8))
        assert p.widths == [5] * (report.iterations + 1)

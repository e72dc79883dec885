"""GMRES core, global-Krylov multi-RHS and convergence bookkeeping."""

import numpy as np
import pytest
import scipy.linalg

from helpers import monotone_nonincreasing, random_complex, rel_err
from toepsolve import cli
from toepsolve.errors import NoConvergence
from toepsolve.problems import ArrayProblemSpec, assemble_full, build_excitations, generate
from toepsolve.solvers import (
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
        x, report = solve_multi_rhs_vectorized(dense_op(np.eye(3)), None, b, GmresConfig(tol=1e-12))
        assert report.iterations == 1
        assert rel_err(x, b) <= 1e-14

    def test_diagonal_two_step_exactness(self):
        a = np.diag([1.0, 2.0])
        x, report = solve_multi_rhs_vectorized(
            dense_op(a), None, np.array([[1.0], [1.0]]), GmresConfig(tol=1e-13)
        )
        assert report.iterations <= 2
        assert np.allclose(x, [[1.0], [0.5]], rtol=1e-12)

    def test_zero_rhs_returns_zero(self):
        x, report = solve_multi_rhs_vectorized(
            dense_op(np.eye(3)), None, np.zeros((3, 1)), GmresConfig(tol=1e-8)
        )
        assert not x.any() and report.converged

    def test_no_convergence_carries_report(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 30, 30) + 2 * np.eye(30)
        b = random_complex(rng, 30, 1)
        with pytest.raises(NoConvergence) as err:
            solve_multi_rhs_vectorized(dense_op(a), None, b, GmresConfig(tol=1e-14, max_iter=3))
        assert err.value.report.iterations == 3
        assert err.value.solution.shape == (30, 1)
        assert monotone_nonincreasing(err.value.report.residual_history)

    def test_restarted_reaches_tolerance(self):
        rng = np.random.default_rng(1)
        # GMRES(5) needs more than n = 40 inner iterations here
        a = random_complex(rng, 40, 40) + 12 * np.eye(40)
        b = random_complex(rng, 40, 1)
        cfg = GmresConfig(tol=1e-9, max_iter=200, restart=5)
        x, report = solve_multi_rhs_vectorized(dense_op(a), None, b, cfg)
        assert rel_err(a @ x, b) <= 1e-8
        assert report.converged

    def test_residual_history_monotone_and_relative(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 25, 25) + 3 * np.eye(25)
        b = random_complex(rng, 25, 1)
        _, report = solve_multi_rhs_vectorized(dense_op(a), None, b, GmresConfig(tol=1e-10, max_iter=100))
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
        x, report = solve_multi_rhs_vectorized(
            lambda v: bordered_matvec(op, v), p, b, GmresConfig(tol=1e-3, max_iter=200)
        )
        full = assemble_full(sys_)
        assert np.linalg.norm(full @ x - b) / np.linalg.norm(b) <= 5e-3
        assert report.converged

    def test_padded_circulant_grid_matches_dense_lu(self):
        # 2*7-1 = 13 and 2*9-1 = 17 embed at the fast lengths 14 and 18
        sys_ = generate(ArrayProblemSpec(ny=7, nx=9, ne=3, seed=5))
        v = build_excitations(sys_, 0).matrix
        x, _, report = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-10)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(assemble_full(sys_)), v)
        assert report.converged
        assert rel_err(x, want) <= 1e-8
        # the spectral operator GMRES holds: 14 x 18 blocks of 3 x 3 complex128
        assert report.memory_estimate["generator"] == 14 * 18 * 3 * 3 * 16


class TestMultiRhs:
    @pytest.fixture(scope="class")
    def problem(self):
        sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=4, seed=7))
        return (
            sys_,
            BorderedOperator.from_system(sys_),
            build_pk(sys_),
            build_excitations(sys_, 0).matrix,
            assemble_full(sys_),
        )

    def test_single_column_vectorized_identical_to_sequential(self, problem):
        sys_, op, p, v, _ = problem
        cfg = GmresConfig(tol=1e-8, max_iter=200)
        x1, r1 = solve_multi_rhs_vectorized(lambda u: bordered_matvec(op, u), p, v[:, 0:1], cfg)
        x2, r2 = solve_multi_rhs_vectorized(op, p, v[:, 0:1], cfg)
        assert np.array_equal(x1, x2)
        assert r1.residual_history == r2.residual_history
        x3, reports = solve_multi_rhs_sequential(op, p, v[:, 0:1], cfg)
        assert np.array_equal(x1, x3)
        assert reports[0].residual_history == r1.residual_history

    def test_stacked_residual_per_column(self, problem):
        _, op, p, v, full = problem
        tol = 1e-3
        x, report = solve_multi_rhs_vectorized(op, p, v, GmresConfig(tol=tol, max_iter=300))
        per_col = np.linalg.norm(full @ x - v, axis=0) / np.linalg.norm(v, axis=0)
        assert per_col.max() <= 10 * tol
        assert monotone_nonincreasing(report.residual_history)

    def test_krylov_memory_formulas(self, problem):
        sys_, op, p, v, _ = problem
        cfg = GmresConfig(tol=1e-4, max_iter=300)
        _, rv = solve_multi_rhs_vectorized(op, p, v, cfg)
        m = v.shape[1]
        assert rv.memory_estimate["krylov"] == rv.iterations * m * sys_.dim * 16
        _, reports = solve_multi_rhs_sequential(op, p, v, cfg)
        for rep in reports:
            assert rep.memory_estimate["krylov"] == rep.iterations * sys_.dim * 16
        peak_seq = max(rep.memory_estimate["krylov"] for rep in reports)
        assert peak_seq < rv.memory_estimate["krylov"]

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

"""Left-preconditioned GMRES with modified Gram-Schmidt Arnoldi.

The Krylov iterate is a whole (n, W) column block: the inner product is
the Frobenius one over all entries.  With W = 1 this is standard
GMRES; with W = M it is the global-Krylov method for M simultaneous
right-hand sides, equivalent to running GMRES on the stacked problem
(identity (x) A) vec(X) = vec(B) without ever forming that matrix - the
operator is simply applied to all columns at once.

Full (non-restarted) by default; an optional restart length is honored.
The per-iteration residual estimates come from the Givens recurrence, so
the recorded history is the relative *preconditioned* residual and is
non-increasing by construction.  The true unpreconditioned residual is
recomputed once at exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoConvergence, ShapeError
from .bordered import BorderedOperator, bordered_matvec

__all__ = [
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_vectorized",
    "solve_multi_rhs_sequential",
]

_BYTES_PER_SCALAR = 16


@dataclass
class GmresConfig:
    tol: float = 1e-3
    max_iter: int = 500
    restart: int | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.restart is not None and self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")


def _new_timings() -> dict:
    return {"precond_build": 0.0, "precond_apply": 0.0, "matvec_total": 0.0,
            "orthogonalization": 0.0, "total": 0.0}


def _new_memory() -> dict:
    return {"generator": 0, "krylov": 0, "preconditioner": 0}


@dataclass
class SolveReport:
    """Bookkeeping of one solve: residuals, timings, memory tallies."""

    method: str = ""
    iterations: int = 0
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)
    final_residual: float = 0.0
    phase_timings: dict = field(default_factory=_new_timings)
    memory_estimate: dict = field(default_factory=_new_memory)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_history": list(self.residual_history),
            "final_residual": self.final_residual,
            "phase_timings": dict(self.phase_timings),
            "memory_estimate": dict(self.memory_estimate),
        }


def _givens(a: complex, b: float) -> tuple[float, complex, complex]:
    """Rotation [c, s; -conj(s), c] zeroing b under a (b real, >= 0)."""
    t = np.hypot(abs(a), b)
    if t == 0.0:
        return 1.0, 0.0 + 0.0j, 0.0 + 0.0j
    if a == 0.0:
        return 0.0, 1.0 + 0.0j, complex(b)
    alpha = a / abs(a)
    return abs(a) / t, alpha * (b / t), alpha * t


def _gmres_block(apply_operator, preconditioner, b, cfg: GmresConfig) -> tuple[np.ndarray, SolveReport]:
    """Core block-GMRES; b is (n, W), returns (n, W) iterate and report."""
    report = SolveReport()
    timings = report.phase_timings
    t_start = time.perf_counter()

    def precondition(v):
        return v if preconditioner is None else preconditioner.apply(v)

    n, w = b.shape
    t0 = time.perf_counter()
    pb = precondition(b)
    timings["precond_apply"] += time.perf_counter() - t0
    beta0 = float(np.linalg.norm(pb))
    if beta0 == 0.0:
        report.residual_history = [0.0]
        report.final_residual = 0.0
        timings["total"] = time.perf_counter() - t_start
        return np.zeros_like(b), report

    # full GMRES terminates within n*W steps; restarted GMRES may need more
    max_total = min(cfg.max_iter, n * w) if cfg.restart is None else cfg.max_iter
    cycle_len = max_total if cfg.restart is None else min(cfg.restart, max_total)

    x = np.zeros_like(b)
    history = [1.0]
    total_iters = 0
    converged = False

    while True:
        if total_iters == 0:
            r = b
        else:
            t0 = time.perf_counter()
            r = b - apply_operator(x)
            timings["matvec_total"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        pr = precondition(r)
        timings["precond_apply"] += time.perf_counter() - t0
        beta = float(np.linalg.norm(pr))
        if beta / beta0 <= cfg.tol:
            converged = True
            break

        basis = [pr / beta]
        r_cols: list[np.ndarray] = []  # rotated Hessenberg columns (upper triangle)
        cos: list[float] = []
        sin: list[complex] = []
        g = [complex(beta)]
        breakdown = False

        j = 0
        while j < cycle_len and total_iters < max_total:
            t0 = time.perf_counter()
            av = apply_operator(basis[j])
            t1 = time.perf_counter()
            timings["matvec_total"] += t1 - t0
            v = precondition(av)
            t2 = time.perf_counter()
            timings["precond_apply"] += t2 - t1

            hcol = np.empty(j + 2, dtype=np.complex128)
            for i in range(j + 1):
                hij = np.vdot(basis[i], v)
                v -= hij * basis[i]
                hcol[i] = hij
            hnext = float(np.linalg.norm(v))
            hcol[j + 1] = hnext
            timings["orthogonalization"] += time.perf_counter() - t2

            for i in range(j):
                hi, hi1 = hcol[i], hcol[i + 1]
                hcol[i] = cos[i] * hi + sin[i] * hi1
                hcol[i + 1] = -np.conj(sin[i]) * hi + cos[i] * hi1
            c, s, rjj = _givens(hcol[j], hnext)
            hcol[j] = rjj
            cos.append(c)
            sin.append(s)
            g.append(-np.conj(s) * g[j])
            g[j] = c * g[j]
            r_cols.append(hcol[: j + 1].copy())

            total_iters += 1
            j += 1
            estimate = abs(g[j]) / beta0
            history.append(estimate)

            if estimate <= cfg.tol:
                converged = True
                break
            if hnext == 0.0:
                # Arnoldi breakdown: the Krylov space is invariant, the
                # current least-squares iterate is exact.
                converged = True
                breakdown = True
                break
            basis.append(v / hnext)

        # assemble the cycle iterate x += V y with R y = g
        m = j
        if m:
            rmat = np.zeros((m, m), dtype=np.complex128)
            for col, vals in enumerate(r_cols):
                rmat[: col + 1, col] = vals
            y = np.zeros(m, dtype=np.complex128)
            for i in range(m - 1, -1, -1):
                if rmat[i, i] == 0.0:  # stagnated direction, contributes nothing
                    continue
                y[i] = (g[i] - rmat[i, i + 1 :] @ y[i + 1 :]) / rmat[i, i]
            for i in range(m):
                x += y[i] * basis[i]

        if converged or breakdown or total_iters >= max_total:
            break

    t0 = time.perf_counter()
    residual = b - apply_operator(x)
    timings["matvec_total"] += time.perf_counter() - t0

    report.iterations = total_iters
    report.converged = converged
    report.residual_history = history
    report.final_residual = float(np.linalg.norm(residual) / np.linalg.norm(b))
    report.memory_estimate["krylov"] = total_iters * w * n * _BYTES_PER_SCALAR
    timings["total"] = time.perf_counter() - t_start
    return x, report


def _operator_memory(op, p, report: SolveReport) -> None:
    if isinstance(op, BorderedOperator):
        report.memory_estimate["generator"] = op.generator_bytes
    if p is not None:
        report.memory_estimate["preconditioner"] = p.stored_bytes


def solve_multi_rhs_vectorized(
    op, p, rhs, cfg: GmresConfig, method: str = "vectorized"
) -> tuple[np.ndarray, SolveReport]:
    """Solve A X = B with one left-preconditioned global-Krylov GMRES.

    ``op`` is a BorderedOperator or a callable acting on column blocks;
    ``p`` is a preconditioner with an ``apply`` method, or None.  All
    columns of the 2-D ``rhs`` are iterated jointly; the Krylov memory
    tally is iterations * M * dim * 16 bytes, since every basis vector
    spans all M columns.  Stops when the preconditioned relative residual
    drops below ``cfg.tol``; raises NoConvergence (with the best iterate
    and report attached) at the iteration cap.
    """
    arr = np.asarray(rhs, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"rhs must be a column block, got ndim={arr.ndim}")
    apply_op = op if callable(op) else (lambda x: bordered_matvec(op, x))

    x, report = _gmres_block(apply_op, p, arr, cfg)
    report.method = method
    _operator_memory(op, p, report)
    if not report.converged:
        raise NoConvergence(
            f"GMRES stopped after {report.iterations} iterations at relative "
            f"preconditioned residual {report.residual_history[-1]:.3e} > tol {cfg.tol:.1e}",
            solution=x,
            report=report,
        )
    return x, report


def solve_multi_rhs_sequential(
    op, p, rhs, cfg: GmresConfig, method: str = "sequential"
) -> tuple[np.ndarray, list[SolveReport]]:
    """Independent GMRES per column; Krylov memory scales per column.

    All columns are solved even when some fail; a NoConvergence carrying
    every per-column report is raised at the end if any column missed the
    tolerance.
    """
    arr = np.asarray(rhs, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"rhs must be a column block, got ndim={arr.ndim}")
    apply_op = op if callable(op) else (lambda x: bordered_matvec(op, x))

    x = np.empty_like(arr)
    reports: list[SolveReport] = []
    failed: list[int] = []
    for col in range(arr.shape[1]):
        xi, rep = _gmres_block(apply_op, p, arr[:, col : col + 1], cfg)
        rep.method = method
        _operator_memory(op, p, rep)
        x[:, col] = xi[:, 0]
        reports.append(rep)
        if not rep.converged:
            failed.append(col)
    if failed:
        raise NoConvergence(
            f"columns {failed} did not converge within {cfg.max_iter} iterations",
            solution=x,
            reports=reports,
        )
    return x, reports

"""Left-preconditioned GMRES with modified Gram-Schmidt Arnoldi.

One solve runs G independent Krylov *groups* in lockstep.  The (n, W)
right-hand side block is cut into G groups of k = W/G adjacent columns.
A group's Krylov iterate is its whole (n, k) column block, and its inner
product is the Frobenius one over all entries.  With k = 1 this is
standard GMRES; with one group of W = M columns it is the global-Krylov
method for M simultaneous right-hand sides, equivalent to running GMRES
on the stacked problem (identity (x) A) vec(X) = vec(B) without ever
forming that matrix.

Each group has its own inner products, norms, Givens rotations, stopping
test, breakdown handling, restarts and back substitution.  The groups
share only the operator and preconditioner applications: each step
applies both once, to the columns of every group still iterating.  The
basis is kept group-major, one (G, n*k) array per Krylov vector, so one
``np.vecdot`` forms every group's inner product; for one group it gives
the same bits as ``np.vdot``.  A group that meets the tolerance forms its
iterate at once and leaves the active set, so it costs no more matvecs.

``solve_multi_rhs_vectorized`` is one group of all columns.
``solve_multi_rhs_sequential`` gives every column its own group and runs
the columns in blocks of ``SEQUENTIAL_BLOCK`` = 32.  One matvec on 32
columns costs far less than 32 one-column matvecs: the border products
run as GEMMs instead of GEMVs, and the per-call overhead is paid once.
The Krylov memory of a block stays at 32 columns' worth however many
columns the solve has.  On a 12x20 grid with 240 right-hand sides
(ne = 8, one BLAS thread), widths of 8, 16, 32, 64 and 240 gave about
5.5, 4.9, 4.4, 5.2 and 5.3 s on a 2-core host, against about 12 s for
one column at a time.

Full (non-restarted) by default; an optional restart length is honored.
The per-iteration residual estimates come from the Givens recurrence, so
the recorded history is the relative *preconditioned* residual and is
non-increasing by construction.  The true unpreconditioned residual is
recomputed once at exit, by one matvec over the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NoConvergence, ShapeError
from .bordered import bordered_matvec

__all__ = [
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_vectorized",
    "solve_multi_rhs_sequential",
    "SEQUENTIAL_BLOCK",
]

# columns per lockstep block of the sequential solve (see the module docstring)
SEQUENTIAL_BLOCK = 32


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


@dataclass
class SolveReport:
    """Outcome of one Krylov group: its iterations, stopping result and residuals."""

    iterations: int = 0
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)
    final_residual: float = 0.0


def _to_groups(block: np.ndarray, groups: int) -> np.ndarray:
    """(n, G*k) column block -> (G, n*k) group-major rows."""
    n, w = block.shape
    return block.reshape(n, groups, w // groups).transpose(1, 0, 2).reshape(groups, -1)


def _to_block(rows: np.ndarray, n: int) -> np.ndarray:
    """(G, n*k) group-major rows -> (n, G*k) column block."""
    groups = rows.shape[0]
    return rows.reshape(groups, n, rows.shape[1] // n).transpose(1, 0, 2).reshape(n, -1)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, summed the way ``np.linalg.norm`` sums one."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def _givens(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotations [c, s; -conj(s), c] zeroing b under a, one per group (b real, >= 0)."""
    abs_a = np.abs(a)
    t = np.hypot(abs_a, b)
    # a = 0 takes alpha = 1 (c = 0, s = 1); t = 0 gives the identity rotation
    alpha = np.divide(a, abs_a, out=np.ones_like(a), where=abs_a != 0.0)
    safe_t = np.where(t == 0.0, 1.0, t)
    return np.where(t == 0.0, 1.0, abs_a / safe_t), alpha * (b / safe_t), alpha * t


def _back_substitute(r_cols: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """y with R y = g per group; ``r_cols[c]`` holds column c of every R, shape (G, c+1)."""
    groups, m = g.shape
    rmat = np.zeros((groups, m, m), dtype=np.complex128)
    for col, vals in enumerate(r_cols):
        rmat[:, : col + 1, col] = vals
    y = np.zeros((groups, m), dtype=np.complex128)
    for i in range(m - 1, -1, -1):
        rii = rmat[:, i, i]
        tail = (rmat[:, i, None, i + 1 :] @ y[:, i + 1 :, None])[:, 0, 0]
        # a zero diagonal marks a stagnated direction, which contributes nothing
        y[:, i] = np.where(rii == 0.0, 0.0, (g[:, i] - tail) / np.where(rii == 0.0, 1.0, rii))
    return y


def _gmres_block(
    apply_operator, preconditioner, b, cfg: GmresConfig, groups: int
) -> tuple[np.ndarray, list[SolveReport]]:
    """Lockstep GMRES on ``groups`` equal column groups of b (n, W).

    Returns the (n, W) iterate and one report per group.
    """
    n, w = b.shape
    k = w // groups

    def operator(rows):
        return apply_operator(_to_block(rows, n))

    def precondition(block, count):
        out = block if preconditioner is None else preconditioner.apply(block)
        return _to_groups(out, count)

    bg = _to_groups(b, groups)
    pr = precondition(b, groups)
    beta0 = _norms(pr)
    zero = beta0 == 0.0  # solved by x = 0
    x = np.zeros_like(bg)
    history = [[0.0] if z else [1.0] for z in zero]
    iterations = np.zeros(groups, dtype=int)
    converged = zero.copy()
    active = np.flatnonzero(~zero)
    pr = pr[active]

    # full GMRES terminates within n*k steps; restarted GMRES may need more
    max_total = min(cfg.max_iter, n * k) if cfg.restart is None else cfg.max_iter
    cycle_len = max_total if cfg.restart is None else min(cfg.restart, max_total)
    total = 0

    while active.size:
        if total:  # restart from the current iterate
            pr = precondition(_to_block(bg[active], n) - operator(x[active]), active.size)
        beta = _norms(pr)
        done = beta / beta0[active] <= cfg.tol
        converged[active[done]] = True
        active, pr, beta = active[~done], pr[~done], beta[~done]
        if not active.size:
            break

        basis = [pr / beta[:, None]]
        r_cols: list[np.ndarray] = []  # rotated Hessenberg columns (upper triangle)
        cos: list[np.ndarray] = []
        sin: list[np.ndarray] = []
        g = [beta.astype(np.complex128)]

        j = 0
        while True:
            v = precondition(operator(basis[j]), active.size)
            hcol = np.empty((active.size, j + 2), dtype=np.complex128)
            for i in range(j + 1):
                hcol[:, i] = np.vecdot(basis[i], v)
                v -= hcol[:, i, None] * basis[i]
            hnext = _norms(v)
            hcol[:, j + 1] = hnext

            for i in range(j):
                hi, hi1 = hcol[:, i], hcol[:, i + 1]
                hcol[:, i], hcol[:, i + 1] = (cos[i] * hi + sin[i] * hi1,
                                              -np.conj(sin[i]) * hi + cos[i] * hi1)
            c, s, hcol[:, j] = _givens(hcol[:, j], hnext)
            cos.append(c)
            sin.append(s)
            g.append(-np.conj(s) * g[j])
            g[j] = c * g[j]
            r_cols.append(hcol[:, : j + 1])

            total += 1
            j += 1
            iterations[active] += 1
            estimate = np.abs(g[j]) / beta0[active]
            for group, e in zip(active, estimate.tolist()):
                history[group].append(e)

            # At an Arnoldi breakdown (hnext = 0) the Krylov space is invariant:
            # the rotation has s = 0, so the estimate is 0 and the group leaves
            # with its exact least-squares iterate before v / hnext is formed.
            done = estimate <= cfg.tol
            converged[active[done]] = True
            cycle_end = j == cycle_len or total >= max_total
            leave = done | cycle_end
            if leave.any():
                # x += V y with R y = g for every group leaving the cycle
                sel = slice(None) if leave.all() else leave  # a view when all leave
                y = _back_substitute([h[sel] for h in r_cols], np.stack(g[:j], axis=1)[sel])
                rows = active[leave]
                update = x[rows]
                for i in range(j):
                    update += y[:, i, None] * basis[i][sel]
                x[rows] = update
            if done.any():
                keep = ~done
                active, v, hnext = active[keep], v[keep], hnext[keep]
                basis, r_cols, cos, sin, g = (
                    [a[keep] for a in seq] for seq in (basis, r_cols, cos, sin, g)
                )
            if cycle_end or not active.size:
                break
            basis.append(v / hnext[:, None])

        if total >= max_total:
            break

    final = np.zeros(groups)
    live = np.flatnonzero(~zero)
    if live.size:
        residual = bg[live] - _to_groups(operator(x[live]), live.size)
        final[live] = _norms(residual) / _norms(bg[live])

    reports = [SolveReport(its, conv, hist, res) for its, conv, hist, res
               in zip(iterations.tolist(), converged.tolist(), history, final.tolist())]
    return _to_block(x, n), reports


def _prepare(op, rhs):
    """The operator as a callable on column blocks, and rhs as a 2-D complex block."""
    arr = np.asarray(rhs, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"rhs must be a column block, got ndim={arr.ndim}")
    return (op if callable(op) else (lambda x: bordered_matvec(op, x))), arr


def solve_multi_rhs_vectorized(op, p, rhs, cfg: GmresConfig) -> tuple[np.ndarray, list[SolveReport]]:
    """Solve A X = B with one left-preconditioned global-Krylov GMRES.

    ``op`` is a BorderedOperator or a callable acting on column blocks;
    ``p`` is a preconditioner with an ``apply`` method, or None.  All
    columns of the 2-D ``rhs`` are iterated jointly as one group, whose
    report is the one entry of the returned list.  Stops when the
    preconditioned relative residual drops below ``cfg.tol``; raises
    NoConvergence (with the best iterate and the report attached) at the
    iteration cap.
    """
    apply_op, arr = _prepare(op, rhs)
    x, reports = _gmres_block(apply_op, p, arr, cfg, groups=1)
    (report,) = reports
    if not report.converged:
        raise NoConvergence(
            f"GMRES stopped after {report.iterations} iterations at relative "
            f"preconditioned residual {report.residual_history[-1]:.3e} > tol {cfg.tol:.1e}",
            solution=x,
            reports=reports,
        )
    return x, reports


def solve_multi_rhs_sequential(op, p, rhs, cfg: GmresConfig) -> tuple[np.ndarray, list[SolveReport]]:
    """Independent GMRES per column, run in lockstep column blocks.

    Every column is its own Krylov group with its own inner products,
    rotations, stopping test and restarts, so its iterates are those of a
    solve of that column alone up to rounding.  The columns run in blocks
    of ``SEQUENTIAL_BLOCK``; within a block each step applies the operator
    and the preconditioner once to the columns still iterating.  All
    columns are solved even when some fail; a NoConvergence carrying
    every per-column report and the full iterate is raised at the end if
    any column missed the tolerance.
    """
    apply_op, arr = _prepare(op, rhs)
    x = np.empty_like(arr)
    reports: list[SolveReport] = []
    for start in range(0, arr.shape[1], SEQUENTIAL_BLOCK):
        block = arr[:, start : start + SEQUENTIAL_BLOCK]
        x[:, start : start + block.shape[1]], block_reports = _gmres_block(
            apply_op, p, block, cfg, groups=block.shape[1]
        )
        reports.extend(block_reports)

    failed = [col for col, rep in enumerate(reports) if not rep.converged]
    if failed:
        raise NoConvergence(
            f"columns {failed} did not converge within {cfg.max_iter} iterations",
            solution=x,
            reports=reports,
        )
    return x, reports

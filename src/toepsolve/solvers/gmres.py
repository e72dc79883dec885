"""Right-preconditioned block GMRES for many right-hand sides.

``solve_multi_rhs_vectorized`` solves the (n, W) right-hand side block
one block of ``BLOCK_WIDTH`` = 32 columns (the last maybe fewer) after
another, so the Krylov memory stays at one block's worth however many
columns the solve has.  One matvec on 32 columns costs far less than 32
one-column matvecs: the border products run as GEMMs instead of GEMVs,
and the per-call overhead is paid once.

Each block runs right-preconditioned block GMRES (Simoncini &
Gallopoulos, SIAM J. Sci. Comput. 16, 1995; Gutknecht, "Block Krylov
space methods for linear systems with multiple right-hand sides: an
introduction", 2007).  The block iterates on A P^-1 in one block Krylov
space shared by its columns, and every column's residual is minimized
over that whole space.  A step applies P^-1 and then A to the newest
s-column panel of the basis, orthogonalizes the result against the basis
by one classical Gram-Schmidt pass (two GEMMs against the columns the
steps so far have built), and orthonormalizes it by a Cholesky QR of its
Gram matrix.  When that Gram matrix is not safely positive definite (a
zero or repeated column, or an invariant subspace), a column-pivoted
Householder QR takes over and zeroes the directions it finds dependent,
so every nonzero basis column stays orthonormal.  The block Hessenberg
matrix is reduced as it grows, by one QR of a (2s, s) block per step,
which also gives every column's residual norm.  The iterate
x = P^-1 (V Y) is formed once, when the block stops, with Y
back-substituted one block column of the triangular factor at a time.
So a block holds its basis, that factor's block columns and panel-sized
scratch, and no dense triangle; its iterate and residual are formed
only once its first cycle has ended, which starts from b itself.

Stopping rule.  A block stops when every column's estimate
||b_j - A x_j|| / ||b_j|| is at most ``tol``.  Under right
preconditioning that estimate is the column's true residual, up to the
rounding of the basis.  The true residual is then formed in complex128 as
a guard: a column still above ``tol`` sends the block through one more
cycle, started from its iterate, on the columns that missed.  A block
fails only when ``max_iter`` steps (summed over its cycles) run out, or
when the operator returns an inf or NaN residual, from which no cycle
can start.

Measurements (block GMRES; 16x16 grid, ne = 8, wavenumber 3, 256
right-hand sides, pk, one BLAS thread, 2-core host).  At tol 1e-3, block
widths 16, 32 and 64 took 12-13, 10 and 9 steps per block and 2.00-2.28,
1.70-2.06 and 2.02-2.14 s per solve, hence the width of 32.
One Gram-Schmidt pass leaves the complex64 basis of a 32-column block
with ||I - V^H V||_2 of 3.3e-3 to 7.9e-3; a second pass brings that to
6e-7 to 8e-7 but costs about 0.27 s a solve (a pass triggered by a norm
drop of 1/sqrt(2) fires on every step), and took the same steps to the
same residuals on 64 columns at every tol from 1e-3 to 1e-13, even where
one pass left ||I - V^H V||_2 at 1.2 (complex64, tol 1e-5) or 0.85
(complex128, tol 1e-13).  Against a global-Krylov method (one Krylov
iterate spanning all 256 columns, stopped on the Frobenius norm over
them), the block solve applies the operator to 2816 columns instead of
4096, its basis is a tenth the size, and no column ends above ``tol``
(122 did).

Precision.  When ``tol >= SINGLE_PRECISION_TOL`` (1e-5) the Krylov basis
is complex64, and so is every block the Arnoldi steps hand to the
operator and the preconditioner.  Each step rounds the operator's output
to the basis dtype; an operator computes in the dtype of the ``numerics``
convention, so ``cli.run_method`` runs such blocks on complex64 copies of
the FFT operator and the preconditioner, formed once: the transforms,
the block multiply, the border GEMMs and the preconditioner GEMMs run in
complex64 too.  That halves the basis memory and most of the matvec
time.
The Gram matrices and factors of the panel QRs, the Hessenberg, its
reduction, the least-squares solution, the iterate and the exit true
residual stay complex128, so ``final_residual`` is measured in double
precision whatever the basis (Simoncini & Szyld, SIAM J. Sci. Comput. 25,
2003, on inexact Krylov methods).  Below 1e-5 everything is complex128.
The threshold comes from sweeps of the pk-preconditioned solve (ne = 8,
wavenumber 3) over 64 columns of a 16x16 grid and 32 columns of a 30x30
grid, each column also solved in complex128.  The sweeps ran two methods
this module no longer has: a left-preconditioned one-column GMRES (seq),
stopped on the preconditioned residual, and the global-Krylov method:

* at tol 1e-3, 1e-4 and 1e-5 both precisions took the same iterations
  on both grids, seq and global (seq at 1e-5: 1805 in total on 16x16,
  1183 on 30x30), and the largest true residuals agreed to 0.2%;
* at 1e-6 seq took 2220 iterations against 2218 (16x16) and 1475
  against 1450 (30x30), and the median true residual of the global
  method rose 7% (16x16) and 5% (30x30);
* at 1e-7 both stagnated in complex64 at true residuals of 2e-7 to
  8e-7 and ran to the iteration cap (200 on 16x16, 150 on 30x30), where
  complex128 converged within 43 and 55 steps.

On a harder problem the threshold still meets ``tol`` but is not the
faster choice at 1e-5: one 32-column ``mlfft-pk-vec`` block of a 12x12
grid (ne = 8, ``diagonal_shift`` 0.1) took 29 steps in complex64 against
20 in complex128, both converged, and at 16x16, shift 0.01, 256
right-hand sides and tol 1e-5, complex64 took 699 steps in 23.0 s
against 234 steps in 7.2 s in complex128.

The complex64 bordered matvec is accurate to 1.4e-7 to 1.8e-7 relative
(32 random columns of 7x9, 16x16, 12x20 and 30x30 grids, ne = 8).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ..errors import InvalidSpec, NoConvergence, ShapeError

__all__ = [
    "GmresConfig",
    "SolveReport",
    "solve_multi_rhs_vectorized",
    "BLOCK_WIDTH",
    "SINGLE_PRECISION_TOL",
]

# columns per block (see the module docstring)
BLOCK_WIDTH = 32

# a tolerance at or above this runs the Krylov basis in complex64 (see the
# module docstring)
SINGLE_PRECISION_TOL = 1e-5

@dataclass(frozen=True)
class GmresConfig:
    """Stopping rule and precision of block GMRES.

    A block stops once every column's relative residual
    ||b_j - A x_j|| / ||b_j|| is at most ``tol``; the complex128 true
    residual at exit must confirm it, or the block runs another cycle on
    the columns that missed.  A block that has run ``max_iter`` steps,
    summed over its cycles, or whose true residual is inf or NaN, stops
    unconverged.  Each report records the complex128 true residual as
    ``final_residual``.

    ``tol`` also sets the precision of the Krylov basis, ``basis_dtype``:
    complex64 when ``tol >= SINGLE_PRECISION_TOL`` (1e-5), else
    complex128 (the module docstring gives the measurements).
    """

    tol: float = 1e-3
    max_iter: int = 2000

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise InvalidSpec(f"tol must be a finite real number > 0, got {tol!r}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise InvalidSpec(f"max_iter must be an integer >= 1, got {max_iter!r}")

    @property
    def basis_dtype(self) -> np.dtype:
        """dtype of the Krylov basis and of the blocks the operator receives."""
        return np.dtype(np.complex64 if self.tol >= SINGLE_PRECISION_TOL else np.complex128)


@dataclass
class SolveReport:
    """Outcome of one block of at most ``BLOCK_WIDTH`` columns.

    ``iterations`` counts block Arnoldi steps over every cycle;
    ``residual_history`` starts at 1 (0 for a block of zero columns) and
    holds, after each step, the largest estimated relative residual among
    the columns the block is iterating on; ``final_residual`` is the
    complex128 true residual ||B - A X||_F / ||B||_F of the block's
    columns; ``rhs_norm`` is ||B||_F, taken before the solve writes any
    column; ``basis_bytes`` is the ``nbytes`` of the largest Krylov
    basis array one of the block's cycles allocated (0 when no cycle
    ran).  That is the array's capacity: it starts 8 panels deep and
    grows by half, so a 3-step 32-column block records 256 rows for the
    128 it filled (a 16x16 block, 384 for 352).  ``np.empty`` leaves the
    unfilled rows out of resident memory.
    """

    iterations: int = 0
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)
    final_residual: float = 0.0
    rhs_norm: float = 0.0
    basis_bytes: int = 0


# ------------------------------------------------------------ block GMRES


def _panel_qr(w: np.ndarray, scale: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """w = q r with q (n, t) orthonormal in ``dtype`` and r (t, s) complex128, t <= s.

    Cholesky QR: the Gram matrix and q = w r^-1 are formed in ``dtype``,
    the factor in complex128.  It loses about cond(w)^2 * eps of
    orthogonality (cond of w with unit columns), so it is kept while that
    stays below sqrt(eps), and while every column is above sqrt(eps) of
    ``scale``, its norm before orthogonalization; a column below that is
    noise.  Otherwise (a zero or repeated column, an invariant subspace, a
    Gram matrix that is not positive definite) a column-pivoted
    Householder QR of the columns divided by ``scale`` runs instead, and
    the directions at or below sqrt(eps) are dropped: q keeps the others
    and r their rows, so q r = w up to the dropped noise.
    """
    eps = np.finfo(dtype).eps
    floor = math.sqrt(eps)
    gram = w.conj().T @ w
    norms = np.sqrt(gram.diagonal().real)
    if np.all(norms > floor * scale):
        try:
            chol = np.linalg.cholesky(gram.astype(np.complex128))
        except np.linalg.LinAlgError:
            chol = None
        if chol is not None and np.linalg.cond(chol / norms[:, None]) ** 2 * eps <= floor:
            r = chol.conj().T
            q = w @ scipy.linalg.solve_triangular(r, np.eye(len(r))).astype(dtype)
            return q, r
    unit = np.where(scale > 0.0, scale, 1.0)
    q, rp, perm = scipy.linalg.qr(w.astype(np.complex128) / unit, mode="economic", pivoting=True)
    kept = np.abs(rp.diagonal()) > floor
    r = np.empty_like(rp[kept])
    r[:, perm] = rp[kept] * unit[perm]
    return q[:, kept].astype(dtype), r


def _block_cycle(op, p, r0, b_norms, steps, tol, dtype):
    """One block Arnoldi cycle on A P^-1 from the (n, s) residual block ``r0``.

    Runs until every column's estimate ||g_j|| / ``b_norms`` is at most
    ``tol``, the basis spans R^n or an invariant subspace, or for
    ``steps`` steps.  Returns V Y, the combination of the basis that
    minimizes every column's residual, the largest estimate after each
    step and the bytes of the basis array.  A panel is as wide as the
    directions its QR kept, so a dependent direction leaves the block for
    the rest of the cycle.
    """
    n, s = r0.shape
    q, g0 = _panel_qr(r0, np.linalg.norm(r0, axis=0), dtype)
    # basis vector i is row i, so V = rows[:k].T, and the array grows in place
    # as the steps need it, without a copy beside it
    rows = np.empty((min(8, steps + 1) * s, n), dtype=dtype)
    rows[: q.shape[1]] = q.T
    starts = [0, q.shape[1]]  # panel j is rows[starts[j] : starts[j + 1]]
    del q
    g = [g0]  # the reduced right-hand side, one block row per panel
    reductions: list[np.ndarray] = []  # the unitary of each step's QR
    r_cols: list[np.ndarray] = []  # block column j of the triangular factor
    zero_rows: list[int] = []  # R's rows whose pivot was exactly zero, set to 1
    estimates: list[float] = []
    for j in range(steps):
        k0, k = starts[j], starts[j + 1]
        # the panel goes out as a copy: an operator may keep its input, and the
        # basis must own its memory to grow in place
        w = op(p(np.ascontiguousarray(rows[k0:k].T))).astype(dtype, copy=False)
        scale = np.linalg.norm(w, axis=0)
        h = (w.conj().T @ rows[:k].T).conj().T  # V^H W, one GEMM
        w -= rows[:k].T @ h
        q, sub = _panel_qr(w, scale, dtype)
        width = q.shape[1]
        if len(rows) < k + width:
            # no view of rows is alive here: the operator got a copy, and h, w and
            # q are products, so the reference check is not needed; it also fails
            # whenever a profiler or tracer (sys.setprofile, sys.settrace) holds
            # an extra reference to the array
            rows.resize((len(rows) + max(width, len(rows) // 2), n), refcheck=False)
        rows[k : k + width] = q.T
        starts.append(k + width)
        del w, q  # the basis holds the new panel: free both before the next operator call

        col = np.concatenate([h.astype(np.complex128), sub])
        for i, omega in enumerate(reductions):
            col[starts[i] : starts[i + 2]] = omega @ col[starts[i] : starts[i + 2]]
        unitary, tri = np.linalg.qr(col[k0:], mode="complete")
        omega = unitary.conj().T
        reductions.append(omega)
        col[k0:] = tri
        # an exactly singular A P^-1 leaves a zero pivot; 1 there keeps y finite and
        # leaves y_i as row i of the reduced least-squares residual
        pivots = np.flatnonzero(col[k0:k].diagonal() == 0.0)
        col[k0 + pivots, pivots] = 1.0
        zero_rows.extend(k0 + pivots)
        r_cols.append(col[:k])
        top_bottom = omega @ np.concatenate([g[j], np.zeros((width, s), dtype=np.complex128)])
        g[j] = top_bottom[: k - k0]
        g.append(top_bottom[k - k0 :])

        estimate = np.linalg.norm(g[j + 1], axis=0) / b_norms
        estimates.append(float(estimate.max()))
        # no new direction (an invariant search space), or a search space of all
        # of R^n: the estimates are exact and another step adds nothing
        if np.all(estimate <= tol) or width == 0 or k >= n:
            break

    y = _back_substitute(r_cols, starts, g[: len(r_cols)])
    if zero_rows:  # the last estimate counts the rows the zero pivots left unsolved
        lost = np.linalg.norm(g[-1], axis=0) ** 2 + np.sum(np.abs(y[zero_rows]) ** 2, axis=0)
        estimates[-1] = float((np.sqrt(lost) / b_norms).max())
    z = (rows[: len(y)].T @ y.astype(dtype)).astype(np.complex128, copy=False)
    return z, estimates, rows.nbytes


def _back_substitute(r_cols, starts, g) -> np.ndarray:
    """y with R y = G, for R's block columns ``r_cols`` and G's block rows ``g``.

    Block column j of the upper triangular R is ``r_cols[j]``: rows 0 to
    ``starts[j + 1]``, columns ``starts[j]`` to ``starts[j + 1]``.  R is
    solved one block column at a time, last first, and never assembled.
    The pivots arrive nonzero, and no input is written.
    """
    y = np.concatenate(g)
    for j in reversed(range(len(r_cols))):
        k0, k = starts[j], starts[j + 1]
        y[k0:k] = scipy.linalg.solve_triangular(r_cols[j][k0:k], y[k0:k])
        y[:k0] -= r_cols[j][:k0] @ y[k0:k]
    return y


def _block_gmres(op, p, b, cfg: GmresConfig) -> tuple[np.ndarray, SolveReport, float]:
    """Right-preconditioned block GMRES on the columns of b (n, s).

    Returns the iterate, the block's report and its largest column
    residual at exit.
    """
    dtype = cfg.basis_dtype
    precondition = (lambda u: u) if p is None else p
    b_norms = np.linalg.norm(b, axis=0)
    # x = 0 until the first cycle ends, so that cycle starts from r = b, read-only,
    # and x and r are formed only once its basis is gone
    x, r = None, b
    r_norms = b_norms.copy()
    history = [1.0 if b_norms.any() else 0.0]
    iterations = basis_bytes = 0
    while True:
        # a zero column is solved by x = 0, and tol >= 1 is met at x = 0; a NaN
        # residual is never met, and no cycle can start from it or from an inf
        active = np.flatnonzero(~(r_norms <= cfg.tol * b_norms))
        if not active.size or iterations == cfg.max_iter or not np.isfinite(r_norms).all():
            break
        cols = slice(None) if active.size == len(b_norms) else active  # a view when all iterate
        z, estimates, cycle_bytes = _block_cycle(op, precondition, r[:, cols], b_norms[cols],
                                                 cfg.max_iter - iterations, cfg.tol, dtype)
        iterations += len(estimates)
        basis_bytes = max(basis_bytes, cycle_bytes)
        history += estimates
        if x is None:
            x, r = np.zeros_like(b), b.copy()
        x[:, cols] += precondition(z)
        r[:, cols] = b[:, cols] - op(x[:, cols])
        r_norms[cols] = np.linalg.norm(r[:, cols], axis=0)

    live = b_norms > 0.0
    rhs_norm = float(np.linalg.norm(b_norms))
    final = float(np.linalg.norm(r_norms) / rhs_norm) if rhs_norm else 0.0
    worst = float((r_norms[live] / b_norms[live]).max()) if live.any() else 0.0
    converged = not active.size
    x = np.zeros_like(b) if x is None else x
    return x, SolveReport(iterations, converged, history, final, rhs_norm, basis_bytes), worst


# ------------------------------------------------------------ entry point


def solve_multi_rhs_vectorized(op, p, rhs, cfg: GmresConfig, *,
                               overwrite_rhs: bool = False) -> tuple[np.ndarray, list[SolveReport]]:
    """Solve A X = B by right-preconditioned block GMRES, ``BLOCK_WIDTH`` columns at a time.

    ``op`` applies A and ``p`` applies P^-1 (or is None for no
    preconditioner); both are callables on (n, columns) blocks.  The
    blocks, consecutive ``BLOCK_WIDTH`` columns of the 2-D ``rhs`` (the
    last maybe fewer), are solved one after another, and each returns one
    report; an ``rhs`` holding inf or NaN is a ShapeError.  Every column
    of a converged block has a complex128 true relative residual of at
    most ``cfg.tol``.  All blocks are solved even when some fail; a
    NoConvergence carrying every block's report and the full iterate is
    raised at the end if a block ran out of ``cfg.max_iter`` steps or
    the operator gave it a residual of inf or NaN.

    ``overwrite_rhs`` permits the solve to reuse ``rhs`` for the iterate,
    as scipy's ``overwrite_b`` does, so the solve holds no second
    (n, columns) block.  Each block's columns of ``rhs`` are then
    overwritten with its iterate once that block has finished, and no
    later block reads them; the array returned (and a NoConvergence's
    ``solution``) is ``rhs`` itself when it is a complex128 array, else
    the complex128 copy the solve made of it.
    """
    arr = np.asarray(rhs, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"rhs must be a column block, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ShapeError("rhs holds inf or NaN")
    x = arr if overwrite_rhs else np.empty_like(arr)
    reports: list[SolveReport] = []
    worst: list[float] = []
    for start in range(0, arr.shape[1], BLOCK_WIDTH):
        cols = slice(start, start + BLOCK_WIDTH)
        x[:, cols], report, block_worst = _block_gmres(op, p, arr[:, cols], cfg)
        reports.append(report)
        worst.append(block_worst)
    failed = [i for i, rep in enumerate(reports) if not rep.converged]
    if failed:
        raise NoConvergence(
            f"block GMRES blocks {failed} of {BLOCK_WIDTH} columns stopped after "
            f"{[reports[i].iterations for i in failed]} iterations with a column at relative "
            f"residual up to {max(worst[i] for i in failed):.3e} > tol {cfg.tol:.1e}",
            solution=x,
            reports=reports,
        )
    return x, reports


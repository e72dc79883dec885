"""Right-preconditioned block GMRES for many right-hand sides.

``solve_multi_rhs_vectorized`` solves its right-hand sides one block of
``BLOCK_WIDTH`` columns after another, so the Krylov memory is one
block's worth however many columns there are, and each operator call
runs the border products as GEMMs.  Each block runs block GMRES on
A P^-1 (Simoncini & Gallopoulos, SIAM J. Sci. Comput. 16, 1995;
Gutknecht, "Block Krylov space methods for linear systems with multiple
right-hand sides: an introduction", 2007), minimizing every column's
residual over one shared block Krylov space.  A step applies P^-1 and A
to the newest panel of the basis, orthogonalizes the result by one
classical Gram-Schmidt pass (two GEMMs) and orthonormalizes it by
``_panel_qr``; one QR of a (2s, s) block per step reduces the block
Hessenberg matrix and gives every column's residual estimate.  A cycle
ends by back-substituting Y one block column of the triangular factor at
a time and forming x = P^-1 (V Y), so a block holds only its basis, that
factor and panel-sized scratch.

A block stops when every column's estimate ||b_j - A x_j|| / ||b_j||,
under right preconditioning the true residual up to the basis's
rounding, is at most ``tol``, and the complex128 true residual is the
guard: columns still above ``tol`` run another cycle from their iterate.  A block fails
only when ``max_iter`` steps (summed over its cycles) run out, or when
the operator returns an inf or NaN residual, from which no cycle starts.

``GmresConfig.basis_dtype`` is the one choice of precision: the basis
and every block handed to the operator and the preconditioner have that
dtype, and each step rounds the operator's output to it.  The QR
factors, the Hessenberg, the least-squares solution, the iterate and the
exit residual stay complex128, so ``final_residual`` is measured in
double precision whatever the basis (Simoncini & Szyld, SIAM J. Sci.
Comput. 25, 2003).  On a hard problem a complex64 basis can take several
times the steps of a complex128 one (ROADMAP D17).
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

# columns per block: 32 solved the 16x16 benchmark in fewer seconds than 16 or 64 (PR 14)
BLOCK_WIDTH = 32

# a tol at or above this runs the Krylov basis in complex64: the tightest tol at which
# complex64 matched complex128's steps and residuals on the default problem (PR 13)
SINGLE_PRECISION_TOL = 1e-5

@dataclass(frozen=True)
class GmresConfig:
    """Stopping rule and precision of block GMRES (the module docstring gives the rule).

    ``tol`` bounds each column's complex128 true relative residual, and sets
    ``basis_dtype``: complex64 when ``tol >= SINGLE_PRECISION_TOL``, else
    complex128.  ``max_iter`` bounds a block's steps, summed over its cycles.
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
    ``residual_history`` starts at 1 (0 for a zero block) and holds the
    largest column estimate after each step; ``final_residual`` is the
    complex128 true ||B - A X||_F / ||B||_F; ``rhs_norm`` is ||B||_F, taken
    before the solve writes B; ``basis_bytes`` is the ``nbytes`` of the
    largest basis array a cycle allocated (0 if none ran), a capacity that
    grows by half from 8 panels and can exceed the rows filled;
    ``operator_calls`` and ``operator_columns`` count the operator's calls
    and the columns they were given, the exit residuals' included.
    """

    iterations: int = 0
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)
    final_residual: float = 0.0
    rhs_norm: float = 0.0
    basis_bytes: int = 0
    operator_calls: int = 0
    operator_columns: int = 0


# ------------------------------------------------------------ block GMRES


def _panel_qr(w: np.ndarray, scale: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """w = q r with q (n, t) orthonormal in ``dtype`` and r (t, s) complex128, t <= s.

    Cholesky QR (Gram matrix and q = w r^-1 in ``dtype``, the factor in
    complex128) loses about cond(w)^2 * eps of orthogonality, so it is kept
    while that stays below sqrt(eps) and every column is above sqrt(eps) of
    ``scale``, its norm before orthogonalization.  Otherwise (a zero or
    repeated column, an invariant subspace) a column-pivoted Householder QR
    of w / ``scale`` runs, and q and r drop the directions at or below
    sqrt(eps), so q r = w up to that noise.
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
    ``tol``, the basis spans R^n or an invariant subspace, or for ``steps``
    steps.  Returns V Y, which minimizes every column's residual over the
    basis, the largest estimate after each step and the basis array's
    bytes.  A panel is as wide as the directions its QR kept.
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

    ``r_cols[j]`` holds rows 0 to ``starts[j + 1]`` of R's columns
    ``starts[j]`` to ``starts[j + 1]``; R is solved a block column at a
    time, last first, never assembled.  Pivots arrive nonzero; no input is written.
    """
    y = np.concatenate(g)
    for j in reversed(range(len(r_cols))):
        k0, k = starts[j], starts[j + 1]
        y[k0:k] = scipy.linalg.solve_triangular(r_cols[j][k0:k], y[k0:k])
        y[:k0] -= r_cols[j][:k0] @ y[k0:k]
    return y


def _block_gmres(op, p, b, cfg: GmresConfig) -> tuple[np.ndarray, SolveReport, float]:
    """Block GMRES on the columns of b (n, s): the iterate, its report and its worst residual."""
    dtype = cfg.basis_dtype
    precondition = (lambda u: u) if p is None else p
    widths: list[int] = []  # of every operator call

    def counted(u):
        widths.append(u.shape[1])
        return op(u)

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
        z, estimates, cycle_bytes = _block_cycle(counted, precondition, r[:, cols], b_norms[cols],
                                                 cfg.max_iter - iterations, cfg.tol, dtype)
        iterations += len(estimates)
        basis_bytes = max(basis_bytes, cycle_bytes)
        history += estimates
        if x is None:
            x, r = np.zeros_like(b), b.copy()
        x[:, cols] += precondition(z)
        r[:, cols] = b[:, cols] - counted(x[:, cols])
        r_norms[cols] = np.linalg.norm(r[:, cols], axis=0)

    live = b_norms > 0.0
    rhs_norm = float(np.linalg.norm(b_norms))
    final = float(np.linalg.norm(r_norms) / rhs_norm) if rhs_norm else 0.0
    worst = float((r_norms[live] / b_norms[live]).max()) if live.any() else 0.0
    converged = not active.size
    x = np.zeros_like(b) if x is None else x
    report = SolveReport(iterations, converged, history, final, rhs_norm, basis_bytes, len(widths),
                         sum(widths))
    return x, report, worst


# ------------------------------------------------------------ entry point


def solve_multi_rhs_vectorized(op, p, rhs, cfg: GmresConfig, *,
                               overwrite_rhs: bool = False) -> tuple[np.ndarray, list[SolveReport]]:
    """Solve A X = B by right-preconditioned block GMRES, ``BLOCK_WIDTH`` columns at a time.

    ``op`` applies A and ``p`` applies P^-1 (None for none) to (n, columns)
    blocks.  Each block of consecutive columns of the 2-D ``rhs`` returns
    one report, and every column of a converged block has a complex128 true
    relative residual of at most ``cfg.tol``.  An ``rhs`` with inf or NaN is
    a ShapeError.  Every block is solved, and a NoConvergence with every
    report and the full iterate is raised at the end if one failed.
    ``overwrite_rhs`` (like scipy's ``overwrite_b``) lets each finished
    block's iterate overwrite its columns of ``rhs``, so no second block is
    held; the solution (a NoConvergence's too) is then ``rhs`` if complex128.
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


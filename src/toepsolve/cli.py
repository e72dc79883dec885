"""Command line: generate | solve | verify.

Every run is reproducible from its seed in all non-timing fields.  Exit
codes: 0 success; 1 a ``verify`` check failed; 2 invalid input (a bad
index, a singular system or a problem too large for memory included); 3
no convergence; 4 dense oracle cap exceeded; 5 I/O or format failure (an
unreadable file, no TBZ2 magic, TBZ1's included, or a bad TBZ2 version,
header, size or checksum).  ``solve`` writes the solution and a report
JSON, on exit 3 too, of the schema ``SolveRecord`` gives.  ``verify``
checks each method against the dense oracle, and fails one that raises
(a GMRES ``NoConvergence`` included: exit 1, not 3) or a GMRES method
with a column whose dense true residual is above ``tol``; each line
names its worst column.  ``perfbench/sweep.py`` runs timed sweeps
through ``run_method``.  The BLAS reads its thread cap
(``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``) once, at numpy import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics
from .errors import (
    FormatError,
    IndexOutOfRange,
    InvalidSpec,
    NoConvergence,
    ShapeError,
    SingularMatrix,
    ToepsolveError,
    TooLargeForOracle,
)
from .problems import (
    DEFAULT_ORACLE_CAP,
    ArrayProblemSpec,
    BorderedSystem,
    assemble_full,
    build_excitations,
    generate,
    load,
    save,
)
from .solvers import (
    BorderedOperator,
    GmresConfig,
    SolveReport,
    bordered_matvec,
    build_pk,
    build_pz,
    schur_solve,
    solve_multi_rhs_vectorized,
)
from .solvers.schur import RHS_PANEL

__all__ = ["main", "SolveRecord", "run_method", "BENCH_METHODS"]

BENCH_METHODS = ("dense", "gmres-dense", "rybicki", "mlfft-pk-vec", "mlfft-pz-vec")

# a name perfbench's trace and tests still use, until ROADMAP D12 deletes it; no code calls it
solve_multi_rhs_sequential = solve_multi_rhs_vectorized

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_INVALID = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_ORACLE_CAP = 4
_EXIT_IO = 5

_BYTES_PER_SCALAR = 16

# version of the report JSON that ``solve`` writes
SCHEMA_VERSION = 6


@dataclass
class SolveRecord:
    """One solve by one method: R in ``solve``'s ``{"schema_version": SCHEMA_VERSION, "record": R}``.

    ``phases`` (seconds) and ``memory`` (bytes: 16 per complex128 scalar, 8
    per complex64 one) hold only what the method ran and holds:

        method       phases                          memory
        dense        dense_fill lu_factor lu_solve   generator dense_equivalent solution
                                                     dense
        gmres-dense  dense_fill precond_build        generator dense_equivalent solution
                     matvec precond_apply krylov     dense precond krylov
        rybicki      level1_fill recursion           generator dense_equivalent solution
                     [inverse_columns] border        level1 rhs stacks
        mlfft-*      spectral_precompute             generator dense_equivalent solution
                     precond_build matvec            spectral precond krylov
                     precond_apply krylov

    precision: ``GmresConfig.basis_dtype`` for a GMRES method, else complex128.
    solve_s: wall time of the solve; its phases, each timed from the end of the last, add up to it.
    residual: complex128 true ||V - ZX||_F / ||V||_F, 0 for V = 0.
    groups: one ``SolveReport`` per GMRES block; none for ``dense`` and ``rybicki``.
    ok, error: false and the message after a NoConvergence (exit 3).
    dense_fill, lu_factor, lu_solve: assemble the dense Z, factor it, back-substitute.
    level1_fill, recursion: ``schur_solve``'s level-1 assembly and Rybicki solve.
    inverse_columns: the columns of Z_A^-1 that solve the feed columns, present when any were formed.
    border: the rest of a rybicki solve: routing the columns, stacking the recursion's
        block and scattering its solution, then the Schur border elimination.
    spectral_precompute, precond_build: form the operator, the preconditioner and their complex64 copies.
    matvec, precond_apply: the operator and preconditioner calls inside GMRES, summed.
    krylov (phase): the rest of GMRES, the quantity perfbench reports as ``gmres.self_s``.
    generator: ``gen.blocks``, (2ny-1)(2nx-1)ne^2 scalars.
    dense_equivalent: a dense Z, dim^2 scalars; dense: the dense Z the method allocated.
    solution: the returned block; ``solve`` lets GMRES write it over the excitation block.
    spectral, precond: the transformed generator and the two inverses, plus the complex64 copies.
    krylov (memory): the largest ``basis_bytes`` of the groups; a solve holds one block's basis.
    level1, rhs, stacks: the bytes ``schur_solve`` reports holding.  The level-1 bytes lie
        inside ``solution``'s when the solution is at least as large, so the two do not add.
    """

    method: str
    elements: int
    ny: int
    nx: int
    ne: int
    nb: int
    tol: float
    rhs_columns: int
    precision: str  # "complex64" or "complex128"
    solve_s: float = 0.0
    residual: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    memory: dict[str, int] = field(default_factory=dict)
    groups: list[SolveReport] = field(default_factory=list)
    ok: bool = True
    error: str = ""

    @property
    def iterations(self) -> int:
        """Iterations of the slowest GMRES block; 0 for a direct method."""
        return max((g.iterations for g in self.groups), default=0)


def run_method(
    sys_: BorderedSystem,
    v: np.ndarray,
    method: str,
    tol: float,
    max_iter: int = GmresConfig.max_iter,
    cap: int = DEFAULT_ORACLE_CAP,
    *,
    overwrite_rhs: bool = False,
) -> tuple[np.ndarray, SolveRecord, list[SolveReport]]:
    """Solve the (dim, columns) block ``v`` with one named method.

    Returns the solution, its ``SolveRecord`` and the record's GMRES block
    reports.  ``v`` must be 2-D with ``dim`` rows, a column or more and no
    inf or NaN (ShapeError, DimensionMismatch).  A GMRES NoConvergence is
    re-raised with the finished record as ``record``.  ``overwrite_rhs``
    lets a GMRES method write its solution over ``v`` (see
    ``solve_multi_rhs_vectorized``), and leaves the record as it is: the
    residual reads the norms GMRES takes of V's blocks before it writes
    them.  ``dense`` and ``rybicki`` form theirs from V, so they ignore it.
    """
    if method not in BENCH_METHODS:
        raise InvalidSpec(f"unknown method {method!r} (choose from {', '.join(BENCH_METHODS)})")
    v = numerics.as_columns(v, sys_.dim)
    if not v.shape[1]:
        raise ShapeError(f"expected at least one right-hand side column, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ShapeError("right-hand side block holds inf or NaN")
    spec = sys_.spec
    cfg = GmresConfig(tol=tol, max_iter=max_iter)  # checked for every method, used by GMRES
    precision = "complex128" if method in ("dense", "rybicki") else cfg.basis_dtype.name
    rec = SolveRecord(method, spec.elements, spec.ny, spec.nx, spec.ne, spec.nb, tol, v.shape[1],
                      precision)
    rec.memory.update(generator=sys_.gen.blocks.nbytes,
                      dense_equivalent=sys_.dim**2 * _BYTES_PER_SCALAR,
                      solution=sys_.dim * v.shape[1] * _BYTES_PER_SCALAR)
    phases = rec.phases

    def timed(phase, fn, *args):
        """Run a call inside GMRES, adding its seconds to ``phase``."""
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t

    def sequential(phase, fn, *args):
        """Run a phase timed from the end of the one before, so the phases telescope."""
        nonlocal last
        out = fn(*args)
        now = time.perf_counter()
        phases[phase], last = now - last, now
        return out

    t0 = last = time.perf_counter()
    if method == "dense":
        full = sequential("dense_fill", assemble_full, sys_, cap)
        factors = sequential("lu_factor", numerics.lu_factor, full)
        x = sequential("lu_solve", numerics.lu_solve, factors, v)
        rec.solve_s = last - t0
        rec.memory["dense"] = full.nbytes
        rec.residual = _panel_residual(full.__matmul__, x, v)
        return x, rec, rec.groups

    if method == "rybicki":
        x, report = schur_solve(sys_, v)
        rec.solve_s = time.perf_counter() - t0
        phases.update(report.phases)
        # schur_solve times fill, recursion and inverse columns; border is the rest of solve_s
        phases["border"] = rec.solve_s - sum(report.phases.values())
        rec.memory.update(report.memory)
        op = BorderedOperator.from_system(sys_)
        rec.residual = _panel_residual(lambda u: bordered_matvec(op, u), x, v)
        return x, rec, rec.groups

    # gmres-dense, or mlfft-<precond>-vec.  GMRES hands the operators blocks of the
    # basis dtype, and complex128 ones for the iterate and the exit residual; a block
    # runs on the operator's copy of its dtype, formed in the phase that builds it.
    # gmres-dense's Z stays complex128.
    single = cfg.basis_dtype != np.complex128

    def with_copy(build, *args):
        made = build(*args)
        return made, numerics.astype(made, cfg.basis_dtype) if single else made

    if method == "gmres-dense":
        full = sequential("dense_fill", assemble_full, sys_, cap)
        rec.memory["dense"] = full.nbytes
        precond_name = "pk"
        operator = full.__matmul__
    else:
        precond_name = method.split("-")[1]
        op, op_b = sequential("spectral_precompute", with_copy, BorderedOperator.from_system, sys_)
        operator = lambda u: bordered_matvec(op_b if u.dtype == cfg.basis_dtype else op, u)
        # the complex128 border blocks belong to the system
        rec.memory["spectral"] = op.spectral.diag_blocks.nbytes + (
            op_b.spectral.diag_blocks.nbytes + op_b.zb.nbytes + op_b.zc.nbytes if single else 0)
    # the builder is read from the module globals here, so a wrapped ``build_pk``
    # (as ``perfbench``'s trace installs) is the one run
    p, p_b = sequential("precond_build", with_copy, build_pk if precond_name == "pk" else build_pz, sys_)
    precondition = lambda u: (p_b if u.dtype == cfg.basis_dtype else p).apply(u)
    rec.memory["precond"] = p.stored_bytes + (p_b.stored_bytes if single else 0)
    phases.update(matvec=0.0, precond_apply=0.0)
    failure = None
    try:
        x, reports = solve_multi_rhs_vectorized(lambda u: timed("matvec", operator, u),
                                                lambda u: timed("precond_apply", precondition, u),
                                                v, cfg, overwrite_rhs=overwrite_rhs)
    except NoConvergence as exc:
        failure, reports = exc, exc.reports
    end = time.perf_counter()
    rec.solve_s, rec.groups = end - t0, reports
    phases["krylov"] = end - last - phases["matvec"] - phases["precond_apply"]
    # the true ||V - ZX||_F / ||V||_F, formed from every block's exit residual and norm
    rec.residual = _relative(np.linalg.norm([r.final_residual * r.rhs_norm for r in reports]),
                             np.linalg.norm([r.rhs_norm for r in reports]))
    # a solve holds one block's basis at a time
    rec.memory["krylov"] = max(r.basis_bytes for r in reports)
    if failure is not None:
        rec.ok, rec.error, failure.record = False, str(failure), rec
        raise failure
    return x, rec, rec.groups


def _relative(residual_norm: float, v_norm: float) -> float:
    """A residual norm relative to ||V||; 0 when V = 0, since X = 0 then solves it exactly."""
    return float(residual_norm / v_norm) if v_norm else 0.0


def _panel_residual(apply, x: np.ndarray, v: np.ndarray) -> float:
    """||V - ZX||_F / ||V||_F, with ``apply`` forming Z times ``RHS_PANEL`` columns at a time."""
    panels = (slice(c, c + RHS_PANEL) for c in range(0, v.shape[1], RHS_PANEL))
    squares = sum(np.linalg.norm(apply(x[:, p]) - v[:, p]) ** 2 for p in panels)
    return _relative(np.sqrt(squares), np.linalg.norm(v))


# flag -> (ArrayProblemSpec field, type, help).  A flag not given is absent from
# the parsed namespace, so ``verify`` can tell it was not given and the spec
# supplies its own default; the grid, which the spec does not default, takes
# _GRID_DEFAULTS.
_SPEC_FLAGS = {
    "--ny": ("ny", int, "array rows (default 3)"),
    "--nx": ("nx", int, "array columns (default 3)"),
    "--ne": ("ne", int, "unknowns per element (default 8)"),
    "--nb": ("nb", int, "border unknowns (default 8*(nx+ny))"),
    "--k": ("wavenumber", float, "wavenumber"),
    "--pitch": ("pitch", float, "element spacing"),
    "--reg": ("regularization", float, "kernel smoothing length (default pitch/10)"),
    "--shift": ("diagonal_shift", float, "diagonal shift of self blocks"),
    "--seed": ("seed", int, "generator seed"),
}
_GRID_DEFAULTS = {"ny": 3, "nx": 3, "ne": 8}


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    for flag, (dest, kind, text) in _SPEC_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS, metavar=flag[2:].upper(),
                       help=text)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=GmresConfig.tol)
    p.add_argument("--max-iter", type=int, default=GmresConfig.max_iter)
    p.add_argument("--feed", type=int, default=0, help="feed unknown within an element")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)


def _spec_from_args(args) -> ArrayProblemSpec:
    given = {dest: getattr(args, dest) for dest, _, _ in _SPEC_FLAGS.values() if dest in vars(args)}
    return ArrayProblemSpec(**(_GRID_DEFAULTS | given))


def _cmd_generate(args) -> int:
    sys_ = generate(_spec_from_args(args))
    save(sys_, args.output)
    nbytes = os.path.getsize(args.output)
    s = sys_.spec
    print(
        f"wrote {args.output}: grid {s.ny}x{s.nx}, ne={s.ne}, nb={s.nb}, "
        f"dim={s.dim}, generator scalars={sys_.gen.blocks.size}, file bytes={nbytes}"
    )
    return _EXIT_OK


def _method_tag(args) -> str:
    if args.method != "mlfft":
        if args.precond is not None or args.multi is not None:
            raise InvalidSpec(f"--precond and --multi apply only to mlfft, not {args.method}")
        return args.method
    # --multi seq runs block GMRES too, until ROADMAP D12 deletes --multi
    return f"mlfft-{args.precond or 'pk'}-vec"


def _rhs_arg(text: str) -> str | int:
    """``--rhs``: "all" or a non-negative column index."""
    if text != "all" and not text.isdecimal():
        raise argparse.ArgumentTypeError(f'expected "all" or a non-negative column index, got {text!r}')
    return text if text == "all" else int(text)


def _cmd_solve(args) -> int:
    sys_ = load(args.input)
    v = build_excitations(sys_, args.feed, element=None if args.rhs == "all" else args.rhs).matrix

    tag = _method_tag(args)
    out_path = args.output or (args.input + ".sol")
    report_path = args.report or (out_path + ".json")

    status = _EXIT_OK
    try:
        # v is not read again, so a GMRES method may write the solution over it
        x, rec, _ = run_method(sys_, v, tag, args.tol, args.max_iter, args.cap, overwrite_rhs=True)
    except NoConvergence as exc_nc:
        x, rec = exc_nc.solution, exc_nc.record
        status = _EXIT_NO_CONVERGENCE

    np.ascontiguousarray(x, dtype="<c16").tofile(out_path)
    with open(report_path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "record": asdict(rec)}, fh, indent=2)
    print(
        f"{tag}: dim={sys_.dim}, rhs={v.shape[1]}, iterations={rec.iterations}, "
        f"residual={rec.residual:.3e}, solve={rec.solve_s:.3f}s -> {out_path}"
    )
    if status:
        print(f"warning: {rec.error}", file=sys.stderr)
    return status


def _cmd_verify(args) -> int:
    # checked up front: the method loop below reports a ToepsolveError as a FAILED
    # line, and a bad --tol or --max-iter is invalid input (exit 2)
    GmresConfig(tol=args.tol, max_iter=args.max_iter)
    if args.input is None:
        sys_ = generate(_spec_from_args(args))
    elif given := [flag for flag, (dest, _, _) in _SPEC_FLAGS.items() if dest in vars(args)]:
        raise InvalidSpec(f"{', '.join(given)}: spec flags apply only without an input file")
    else:
        sys_ = load(args.input)
    v = build_excitations(sys_, args.feed).matrix
    full = assemble_full(sys_, args.cap)
    x_ref = numerics.lu_solve(numerics.lu_factor(full), v)
    ref_norm, v_norm = np.linalg.norm(x_ref), np.linalg.norm(v)

    ok = True
    print(f"verify: dim={sys_.dim}, rhs={v.shape[1]}, tol={args.tol:g}")
    for method in BENCH_METHODS:
        if method == "dense":  # the oracle itself
            continue
        bound = 1e-10 if method == "rybicki" else 10.0 * args.tol
        try:
            x, rec, _ = run_method(sys_, v, method, args.tol, args.max_iter, args.cap)
        except ToepsolveError as exc:
            line_ok = False
            print(f"  {method:<14} FAILED ({type(exc).__name__}: {exc})")
        else:
            dev = float(np.linalg.norm(x - x_ref) / ref_norm)
            # the record's residual must be the dense true residual of x; Rybicki's
            # is itself at rounding level, hence the absolute term
            residual = full @ x - v
            true_res = float(np.linalg.norm(residual) / v_norm)
            res_ok = abs(rec.residual - true_res) <= 1e-8 * true_res + 1e-12
            line_ok = dev <= bound and res_ok
            columns = np.linalg.norm(residual, axis=0) / np.linalg.norm(v, axis=0)
            worst = int(np.argmax(columns))
            if method != "rybicki":  # GMRES bounds every column's true residual by tol
                line_ok &= columns[worst] <= args.tol
            print(f"  {method:<14} rms deviation {dev:.3e} (bound {bound:.1e}), record residual "
                  f"{rec.residual:.3e} (dense {true_res:.3e}), worst column {worst}: "
                  f"{columns[worst]:.3e} {'ok' if line_ok else 'FAIL'}")
        ok &= line_ok
    print("verify:", "PASS" if ok else "FAIL")
    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepsolve",
        description="Solvers for bordered two-level block-Toeplitz systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic problem to a TBZ file")
    _add_spec_flags(p)
    p.add_argument("-o", "--output", required=True, help="output TBZ path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "solve", help="solve a TBZ problem and write currents + report",
        description="Solve a TBZ problem and write the currents and a JSON report.  Small solves "
        "can run faster with one BLAS thread: set OPENBLAS_NUM_THREADS=1.",
    )
    p.add_argument("input", help="input TBZ path")
    p.add_argument("--method", choices=["dense", "gmres-dense", "rybicki", "mlfft"], default="mlfft")
    p.add_argument("--precond", choices=["pk", "pz"], default=None, help="mlfft only (default pk)")
    p.add_argument("--multi", choices=["vec", "seq"], default=None,
                   help="mlfft only, and both choices run the same solver: block GMRES, bounding "
                   "every column's true residual by --tol")
    _add_solver_flags(p)
    p.add_argument("--rhs", type=_rhs_arg, default="all", help='"all" or a single column index')
    p.add_argument("-o", "--output", default=None, help="solution file (raw complex128)")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="compare every solver against the dense oracle")
    p.add_argument("input", nargs="?", default=None, help="optional TBZ path (else --ny/--nx/... flags)")
    _add_spec_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpec, ShapeError, ValueError, IndexOutOfRange, SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except TooLargeForOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ORACLE_CAP
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

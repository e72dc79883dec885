"""Command line: generate | solve | verify.

Every run is reproducible from its seed in all non-timing fields.  Exit
codes: 0 success, 1 verify: a check failed, 2 invalid input (an
out-of-range index or a singular system included), 3 no convergence, 4
dense oracle cap exceeded, 5 I/O or file-format failure: an unreadable
file, a file without the TBZ2 magic (an older TBZ1 file included), or a
TBZ2 file with a bad version, header, size or checksum.  ``verify``
reports a method that raises, a GMRES ``NoConvergence`` included, as a
failed check (exit 1), not as exit 3.
It also fails a GMRES method (``gmres-dense``, ``mlfft-*``) if any
column's dense true residual is above ``tol``, and every line names its
worst column.
Timed scaling sweeps (warm-up, repeats, crossovers and an environment
block) are run by the repository's ``perfbench/sweep.py``, which calls
``run_method``.

``solve`` writes the report JSON ``{"schema_version": 4, "record": R}``,
where R is the ``SolveRecord`` of the run as a dict.  Its ``precision``
is the dtype of the GMRES Krylov basis and of the blocks its Arnoldi
steps hand to the operator: ``complex64`` when ``tol`` >=
``SINGLE_PRECISION_TOL`` (1e-5, in ``solvers/gmres.py``), else
``complex128``; ``dense`` and ``rybicki`` are always ``complex128``, and
so is every ``residual``.  ``gmres-dense``'s dense Z product runs in
complex128 whatever ``precision`` says: Z is complex128, and its output
is rounded to the basis dtype.  Its ``solve_s`` is the wall time of the
solve; ``phases`` holds the seconds of only the
phases the method ran, and they add up to ``solve_s`` by construction:
each phase is timed from the end of the one before, and ``krylov`` and
rybicki's ``border`` are the remainders; ``memory`` holds
the bytes (16 per complex128 scalar, 8 per complex64 scalar) of only
what the method holds.
``groups`` has one entry per GMRES block, the column slices that
``block_slices`` in ``solvers/gmres.py`` defines, with its
``iterations``, ``converged``, ``residual_history`` and
``final_residual``, and none for ``dense`` and ``rybicki``.
``residual`` is the true relative residual ||V - ZX||_F / ||V||_F (0
for V = 0), and a non-converged run (exit 3) writes its record too, with
``ok`` false.

    method       phases                          memory
    dense        dense_fill lu_factor lu_solve   generator dense_equivalent solution
                                                 dense
    gmres-dense  dense_fill precond_build        generator dense_equivalent solution
                 matvec precond_apply krylov     dense precond krylov
    rybicki      level1_fill recursion border    generator dense_equivalent solution
                                                 level1 rhs stacks
    mlfft-*      spectral_precompute             generator dense_equivalent solution
                 precond_build matvec            spectral precond krylov
                 precond_apply krylov

Phases: ``dense_fill`` assembles the dense Z; ``lu_factor`` and
``lu_solve`` factor it and back-substitute; ``spectral_precompute``
transforms the generator for the FFT matvec; ``precond_build`` forms the
preconditioner; ``matvec`` and ``precond_apply`` are the operator and
preconditioner applications inside GMRES, summed over the whole solve;
``krylov`` is the rest of the GMRES wall time (orthogonalization,
Hessenberg QR, iterate updates), the quantity ``perfbench`` reports as
``gmres.self_s``; ``level1_fill`` assembles the level-1 blocks,
``recursion`` is the Rybicki solve and ``border`` the rest of the Schur
elimination.  Memory: ``generator`` is the bytes of ``gen.blocks``, the
raw generator's (2ny-1)(2nx-1)ne^2 scalars; ``dense_equivalent`` is what
a dense Z would take, dim^2 scalars; ``solution`` is the solution
block the method returns, dim * columns complex128 scalars (with an
empty border, rybicki's solution is its ``rhs`` block itself; ``solve``
lets a GMRES method write its solution over the excitation block, which
it never reads again, so there ``solution`` is that block and the solve
holds one such block, not two);
``dense`` is the dense Z the method allocated; ``spectral`` and
``precond`` are the ``stored_bytes`` of the FFT operator and of the
preconditioner, read after the solve, so they count the complex64
copies a complex64 solve forms; ``krylov`` is the Krylov basis of the
largest block, iterations * columns * dim scalars of the record's
``precision`` (a solve holds one block's basis at a time); ``level1``,
``rhs`` and ``stacks`` are the bytes ``schur_solve`` reports holding.

BLAS threads are capped by setting ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` before the process starts, since the BLAS reads them
once, when numpy is first imported; ``solve --help`` gives a measurement.
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
    block_slices,
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
SCHEMA_VERSION = 4


@dataclass
class SolveRecord:
    """Outcome of one solve by one method; the keys are in the module docstring."""

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
    max_iter: int = 2000,
    cap: int = DEFAULT_ORACLE_CAP,
    *,
    overwrite_rhs: bool = False,
) -> tuple[np.ndarray, SolveRecord, list[SolveReport]]:
    """Solve the (dim, columns) block ``v`` with one named method.

    Returns the solution, its ``SolveRecord`` and the record's GMRES
    block reports.  Solve time covers every phase of the method: the
    dense fill, the level-1 fill, the spectral precompute and the
    preconditioner build included.  The residual is the true unpreconditioned relative
    residual ||V - ZX||_F / ||V||_F, and 0 for an all-zero V, whose
    solution X = 0 is exact; the GMRES methods take it from the residual
    the solve computes at exit.  A GMRES NoConvergence is re-raised with
    the finished record attached as ``record``.  ``v`` must be 2-D with
    ``dim`` rows and at least one column (ShapeError, DimensionMismatch).

    ``overwrite_rhs`` permits a GMRES method (``gmres-dense``,
    ``mlfft-*``) to write its solution over ``v``, as
    ``solve_multi_rhs_vectorized`` describes, so the solve holds one
    (dim, columns) block instead of two; the solution returned (or a
    NoConvergence's ``solution``) is then ``v`` itself when ``v`` is
    complex128.  The record is the same either way: its residual reads
    the norms of V's blocks before the solve.  ``dense`` and ``rybicki``
    ignore the flag, because their residual is formed from V after the
    solve.
    """
    if method not in BENCH_METHODS:
        raise InvalidSpec(f"unknown method {method!r} (choose from {', '.join(BENCH_METHODS)})")
    v = numerics.as_columns(v, sys_.dim)
    if not v.shape[1]:
        raise ShapeError(f"expected at least one right-hand side column, got shape {v.shape}")
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
        rec.residual = _relative(np.linalg.norm(full @ x - v), np.linalg.norm(v))
        return x, rec, rec.groups

    if method == "rybicki":
        x, report = schur_solve(sys_, v)
        rec.solve_s = time.perf_counter() - t0
        phases.update(report.phases)
        # schur_solve times fill and recursion; the border is the rest of solve_s
        phases["border"] = rec.solve_s - phases["level1_fill"] - phases["recursion"]
        rec.memory.update(report.memory)
        op = BorderedOperator.from_system(sys_)
        # summed over column panels, so the residual is never formed at full width
        panels = (slice(c, c + RHS_PANEL) for c in range(0, v.shape[1], RHS_PANEL))
        squares = sum(np.linalg.norm(bordered_matvec(op, x[:, p]) - v[:, p]) ** 2 for p in panels)
        rec.residual = _relative(np.sqrt(squares), np.linalg.norm(v))
        return x, rec, rec.groups

    # gmres-dense, or mlfft-<precond>-vec
    if method == "gmres-dense":
        full = sequential("dense_fill", assemble_full, sys_, cap)
        rec.memory["dense"] = full.nbytes
        precond_name = "pk"
        operator = full.__matmul__
    else:
        precond_name = method.split("-")[1]
        op = sequential("spectral_precompute", BorderedOperator.from_system, sys_)
        operator = lambda u: bordered_matvec(op, u)
    # the builder is read from the module globals here, so a wrapped ``build_pk``
    # (as ``perfbench``'s trace installs) is the one run
    p = sequential("precond_build", build_pk if precond_name == "pk" else build_pz, sys_)
    # report i is that of block i of the solver's partition; the norms of V's blocks
    # are taken before the solve, which may write the solution over V
    blocks = block_slices(v.shape[1])
    b_norms = np.array([np.linalg.norm(v[:, cols]) for cols in blocks])
    phases.update(matvec=0.0, precond_apply=0.0)
    failure = None
    try:
        x, reports = solve_multi_rhs_vectorized(lambda u: timed("matvec", operator, u),
                                                lambda u: timed("precond_apply", p.apply, u),
                                                v, cfg, overwrite_rhs=overwrite_rhs)
    except NoConvergence as exc:
        failure, reports = exc, exc.reports
    end = time.perf_counter()
    rec.solve_s, rec.groups = end - t0, reports
    phases["krylov"] = end - last - phases["matvec"] - phases["precond_apply"]
    # the true ||V - ZX||_F / ||V||_F, formed from every block's exit residual and its columns
    r_norms = np.array([r.final_residual for r in reports]) * b_norms
    rec.residual = _relative(np.linalg.norm(r_norms), np.linalg.norm(b_norms))
    # the operators' bytes are read after the solve, so they count the complex64
    # copies it formed; a solve holds one block's basis at a time
    if method != "gmres-dense":
        rec.memory["spectral"] = op.stored_bytes
    basis = max(r.iterations * (b.stop - b.start) for r, b in zip(reports, blocks))
    rec.memory.update(precond=p.stored_bytes, krylov=basis * v.shape[0] * cfg.basis_dtype.itemsize)
    if failure is not None:
        rec.ok, rec.error, failure.record = False, str(failure), rec
        raise failure
    return x, rec, rec.groups


def _relative(residual_norm: float, v_norm: float) -> float:
    """A residual norm relative to ||V||; 0 when V = 0, since X = 0 then solves it exactly."""
    return float(residual_norm / v_norm) if v_norm else 0.0


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
    exc = build_excitations(sys_, args.feed)
    v = exc.matrix
    if args.rhs != "all":
        if args.rhs >= v.shape[1]:
            raise InvalidSpec(f"rhs column {args.rhs} outside 0..{v.shape[1] - 1}")
        v = v[:, args.rhs : args.rhs + 1]

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
        "can run faster with one BLAS thread: on a 2-core host a 70-column mlfft-pk-vec solve "
        "of a 7x10 grid (ne 2) took 0.25-0.31 s with 2 OpenBLAS threads and 0.030-0.036 s with "
        "OPENBLAS_NUM_THREADS=1.",
    )
    p.add_argument("input", help="input TBZ path")
    p.add_argument("--method", choices=["dense", "gmres-dense", "rybicki", "mlfft"], default="mlfft")
    p.add_argument("--precond", choices=["pk", "pz"], default=None, help="mlfft only (default pk)")
    p.add_argument("--multi", choices=["vec", "seq"], default=None,
                   help="mlfft only, and both choices run the same solver: block GMRES on the "
                   "column blocks that block_slices in solvers/gmres.py defines, bounding every "
                   "column's true residual by --tol")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--rhs", type=_rhs_arg, default="all", help='"all" or a single column index')
    p.add_argument("--feed", type=int, default=0, help="feed unknown within an element")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("-o", "--output", default=None, help="solution file (raw complex128)")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="compare every solver against the dense oracle")
    p.add_argument("input", nargs="?", default=None, help="optional TBZ path (else --ny/--nx/... flags)")
    _add_spec_flags(p)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--feed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpec, ShapeError, ValueError, IndexOutOfRange, SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    except TooLargeForOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ORACLE_CAP
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

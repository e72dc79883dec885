"""Command line: generate | solve | verify | spectrum.

Every run is reproducible from its seed in all non-timing fields.  Exit
codes: 0 success, 2 invalid input, 3 no convergence, 4 dense oracle cap
exceeded, 5 I/O or file-format failure.  Timed scaling sweeps (warm-up,
repeats, crossovers and an environment block) are run by the
repository's ``perfbench/sweep.py``, which calls ``run_method``.

BLAS threads are capped by setting ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` before the process starts; the BLAS reads them once,
when numpy is first imported.  The default thread count can make small
solves slower: on a 2-core host a 70-column ``mlfft-pk-seq`` solve of a
7x10 grid (ne = 2) took 0.18-0.27 s with 2 OpenBLAS threads and 0.07 s
with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics
from .errors import (
    FormatError,
    InvalidSpec,
    NoConvergence,
    ShapeError,
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
    SEQUENTIAL_BLOCK,
    GmresConfig,
    SolveReport,
    bordered_matvec,
    build_pk,
    build_pz,
    schur_solve,
    solve_multi_rhs_sequential,
    solve_multi_rhs_vectorized,
    spectrum_estimate,
)

__all__ = ["main", "BenchRecord", "run_method", "BENCH_METHODS"]

BENCH_METHODS = ("dense", "gmres-dense", "rybicki", "mlfft-pk-vec", "mlfft-pz-vec", "mlfft-pk-seq",
                 "mlfft-pz-seq")

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_ORACLE_CAP = 4
_EXIT_IO = 5


@dataclass
class BenchRecord:
    """Outcome of one solve by one method: time, residual and storage."""

    method: str
    elements: int
    ny: int
    nx: int
    ne: int
    nb: int
    tol: float
    solve_s: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    mem_generator: int = 0
    mem_dense_equivalent: int = 0
    mem_krylov: int = 0
    mem_precond: int = 0
    mem_level1: int = 0
    dense_allocated: bool = False
    ok: bool = True
    error: str = ""


# version of the record and report JSON that ``solve`` writes
SCHEMA_VERSION = 2


def _blank_record(sys_: BorderedSystem, method: str, tol: float) -> BenchRecord:
    """Record with the exact storage formulas pre-filled from the system."""
    spec = sys_.spec
    rec = BenchRecord(
        method=method,
        elements=spec.elements,
        ny=spec.ny,
        nx=spec.nx,
        ne=spec.ne,
        nb=spec.nb,
        tol=tol,
    )
    rec.mem_generator = sys_.gen.stored_scalars * 16
    rec.mem_dense_equivalent = sys_.dim**2 * 16
    return rec


def _gmres_record(rec: BenchRecord, reports: list[SolveReport], v: np.ndarray, t0: float) -> BenchRecord:
    """Fill the GMRES fields of ``rec`` from a solve that started at ``t0``.

    ``reports`` is the one report of a block solve or the per-column
    reports of a sequential one, from its return value or from its
    NoConvergence.  The residual is the true ||V - ZX||_F / ||V||_F.
    """
    rec.solve_s = time.perf_counter() - t0
    rec.iterations = max(r.iterations for r in reports)
    krylov = [r.memory_estimate["krylov"] for r in reports]
    # a sequential solve holds the bases of one lockstep block at a time
    rec.mem_krylov = max(sum(krylov[i : i + SEQUENTIAL_BLOCK])
                         for i in range(0, len(krylov), SEQUENTIAL_BLOCK))
    memory = reports[0].memory_estimate
    rec.mem_generator = memory["generator"] or rec.mem_generator  # 0 for a dense operator
    rec.mem_precond = memory["preconditioner"]
    if len(reports) == 1:
        rec.residual = reports[0].final_residual
    else:
        b_norms = np.linalg.norm(v, axis=0)
        r_norms = np.array([r.final_residual for r in reports]) * b_norms
        rec.residual = float(np.linalg.norm(r_norms) / np.linalg.norm(b_norms))
    return rec


def run_method(
    sys_: BorderedSystem,
    v: np.ndarray,
    method: str,
    tol: float,
    max_iter: int = 2000,
    cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[np.ndarray, BenchRecord, SolveReport | None]:
    """Solve the (dim, columns) block ``v`` with one named method and fill its record.

    Solve time follows the usual accounting: the dense methods include
    the dense fill, the bordering method includes the level-1 fill, the
    FFT methods include the spectral precompute and preconditioner
    build.  Residuals are true unpreconditioned relative residuals; the
    GMRES methods take them from the residual the solve computes at exit.
    """
    if method not in BENCH_METHODS:
        raise InvalidSpec(f"unknown method {method!r} (choose from {', '.join(BENCH_METHODS)})")
    rec = _blank_record(sys_, method, tol)

    t0 = time.perf_counter()
    if method == "dense":
        full = assemble_full(sys_, cap)
        x = numerics.lu_solve(numerics.lu_factor(full), v)
        rec.dense_allocated = True
        rec.solve_s = time.perf_counter() - t0
        rec.residual = float(np.linalg.norm(full @ x - v) / np.linalg.norm(v))
        return x, rec, None

    if method == "rybicki":
        x, report = schur_solve(sys_, v)
        rec.solve_s = time.perf_counter() - t0
        rec.mem_level1 = report.memory_estimate["level1"]
        op = BorderedOperator.from_system(sys_)
        rec.residual = float(np.linalg.norm(bordered_matvec(op, x) - v) / np.linalg.norm(v))
        return x, rec, report

    # gmres-dense, or mlfft-<precond>-<mode>
    if method == "gmres-dense":
        op, precond_name, mode = assemble_full(sys_, cap).__matmul__, "pk", "vec"
        rec.dense_allocated = True
    else:
        _, precond_name, mode = method.split("-")
        op = BorderedOperator.from_system(sys_)
    t_pre = time.perf_counter()
    p = build_pk(sys_) if precond_name == "pk" else build_pz(sys_)
    precond_build = time.perf_counter() - t_pre
    cfg = GmresConfig(tol=tol, max_iter=max_iter)
    if mode == "vec":
        x, report = solve_multi_rhs_vectorized(op, p, v, cfg, method=method)
        reports = [report]
    else:
        x, reports = solve_multi_rhs_sequential(op, p, v, cfg, method=method)
    reports[0].phase_timings["precond_build"] = precond_build
    return x, _gmres_record(rec, reports, v, t0), reports[0]


def _spec_from_args(args) -> ArrayProblemSpec:
    return ArrayProblemSpec(
        ny=args.ny,
        nx=args.nx,
        ne=args.ne,
        nb=args.nb,
        wavenumber=args.k,
        pitch=args.pitch,
        regularization=args.reg,
        diagonal_shift=args.shift,
        seed=args.seed,
    )


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ny", type=int, default=3, help="array rows")
    p.add_argument("--nx", type=int, default=3, help="array columns")
    p.add_argument("--ne", type=int, default=8, help="unknowns per element")
    p.add_argument("--nb", type=int, default=None, help="border unknowns (default 8*(nx+ny))")
    p.add_argument("--k", type=float, default=3.0, help="wavenumber")
    p.add_argument("--pitch", type=float, default=1.0, help="element spacing")
    p.add_argument("--reg", type=float, default=None, help="kernel smoothing length (default pitch/10)")
    p.add_argument("--shift", type=float, default=1.0, help="diagonal shift of self blocks")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def _load_or_generate(args) -> BorderedSystem:
    if getattr(args, "input", None):
        return load(args.input)
    return generate(_spec_from_args(args))


def _cmd_generate(args) -> int:
    sys_ = generate(_spec_from_args(args))
    save(sys_, args.output)
    nbytes = os.path.getsize(args.output)
    s = sys_.spec
    print(
        f"wrote {args.output}: grid {s.ny}x{s.nx}, ne={s.ne}, nb={s.nb}, "
        f"dim={s.dim}, generator scalars={sys_.gen.stored_scalars}, file bytes={nbytes}"
    )
    return _EXIT_OK


def _method_tag(args) -> str:
    if args.method != "mlfft":
        if args.precond is not None or args.multi is not None:
            raise InvalidSpec(f"--precond and --multi apply only to mlfft, not {args.method}")
        return args.method
    return f"mlfft-{args.precond or 'pk'}-{args.multi or 'vec'}"


def _cmd_solve(args) -> int:
    sys_ = load(args.input)
    exc = build_excitations(sys_, args.feed)
    v = exc.matrix
    if args.rhs != "all":
        col = int(args.rhs)
        if not 0 <= col < v.shape[1]:
            raise InvalidSpec(f"rhs column {col} outside 0..{v.shape[1] - 1}")
        v = v[:, col : col + 1]

    tag = _method_tag(args)
    out_path = args.output or (args.input + ".sol")
    report_path = args.report or (out_path + ".json")

    status = _EXIT_OK
    t0 = time.perf_counter()
    try:
        x, rec, report = run_method(sys_, v, tag, args.tol, args.max_iter, args.cap)
    except NoConvergence as exc_nc:
        x = exc_nc.solution
        reports = exc_nc.reports or [exc_nc.report]
        report = reports[0]
        rec = _gmres_record(_blank_record(sys_, tag, args.tol), reports, v, t0)
        rec.ok = False
        rec.error = str(exc_nc)
        status = _EXIT_NO_CONVERGENCE

    if x is not None:
        np.ascontiguousarray(x, dtype="<c16").tofile(out_path)
    payload = {"record": asdict(rec), "report": report.as_dict() if report else None,
               "rhs_columns": int(v.shape[1]), "schema_version": SCHEMA_VERSION}
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"{tag}: dim={sys_.dim}, rhs={v.shape[1]}, iterations={rec.iterations}, "
        f"residual={rec.residual:.3e}, solve={rec.solve_s:.3f}s -> {out_path}"
    )
    if status:
        print(f"warning: {rec.error}", file=sys.stderr)
    return status


def _cmd_verify(args) -> int:
    sys_ = _load_or_generate(args)
    v = build_excitations(sys_, args.feed).matrix
    full = assemble_full(sys_, args.cap)
    x_ref = numerics.lu_solve(numerics.lu_factor(full), v)
    ref_norm = np.linalg.norm(x_ref)

    ok = True
    print(f"verify: dim={sys_.dim}, rhs={v.shape[1]}, tol={args.tol:g}")
    for method in BENCH_METHODS:
        if method == "dense":  # the oracle itself
            continue
        bound = 1e-10 if method == "rybicki" else 10.0 * args.tol
        try:
            x, _, _ = run_method(sys_, v, method, args.tol, args.max_iter, args.cap)
            dev = float(np.linalg.norm(x - x_ref) / ref_norm)
            line_ok = dev <= bound
        except ToepsolveError as exc:
            dev, line_ok = float("nan"), False
            print(f"  {method:<14} FAILED ({type(exc).__name__}: {exc})")
        else:
            print(f"  {method:<14} rms deviation {dev:.3e} (bound {bound:.1e}) "
                  f"{'ok' if line_ok else 'FAIL'}")
        ok &= line_ok
    print("verify:", "PASS" if ok else "FAIL")
    return _EXIT_OK if ok else 1


def _cmd_spectrum(args) -> int:
    sys_ = _load_or_generate(args)
    op = BorderedOperator.from_system(sys_)
    preconds = [t.strip() for t in args.precond.split(",") if t.strip()]
    rows = []
    for name in preconds:
        if name == "none":
            p = None
        elif name == "pk":
            p = build_pk(sys_)
        elif name == "pz":
            p = build_pz(sys_)
        else:
            raise InvalidSpec(f"unknown preconditioner {name!r}")
        values = spectrum_estimate(
            op, p, count=args.count, oversample=args.oversample,
            power_iters=args.power_iters, seed=args.seed,
        )
        rows.extend((name, rank, float(val)) for rank, val in enumerate(values, start=1))
    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["precond", "rank", "value"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} singular values to {args.csv}")
    return _EXIT_OK


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
        "can run faster with one BLAS thread: on a 2-core host a 70-column mlfft-pk-seq solve "
        "of a 7x10 grid (ne 2) took 0.18-0.27 s with 2 OpenBLAS threads and 0.07 s with "
        "OPENBLAS_NUM_THREADS=1.",
    )
    p.add_argument("input", help="input TBZ path")
    p.add_argument("--method", choices=["dense", "gmres-dense", "rybicki", "mlfft"], default="mlfft")
    p.add_argument("--precond", choices=["pk", "pz"], default=None, help="mlfft only (default pk)")
    p.add_argument("--multi", choices=["vec", "seq"], default=None, help="mlfft only (default vec)")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--rhs", default="all", help='"all" or a single column index')
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

    p = sub.add_parser("spectrum", help="estimate singular values of the preconditioned operator")
    p.add_argument("input", nargs="?", default=None, help="optional TBZ path (else --ny/--nx/... flags)")
    _add_spec_flags(p)
    p.add_argument("--precond", default="none", help="comma list from none,pk,pz")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--oversample", type=int, default=10)
    p.add_argument("--power-iters", type=int, default=2)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpec, ShapeError, ValueError) as exc:
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

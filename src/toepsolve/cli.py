"""Benchmark and experiment driver: generate | solve | bench | verify | spectrum.

Every run is reproducible from its seed in all non-timing fields.  Exit
codes: 0 success, 2 invalid input, 3 no convergence, 4 dense oracle cap
exceeded, 5 I/O or file-format failure.

BLAS threads are capped by setting ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` before the process starts; the BLAS reads them once,
when numpy is first imported.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

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

__all__ = ["main", "BenchRecord", "run_bench", "run_method", "fit_exponent", "BENCH_METHODS"]

BENCH_METHODS = ("dense", "gmres-dense", "rybicki", "mlfft-pk-vec", "mlfft-pz-vec", "mlfft-pk-seq",
                 "mlfft-pz-seq")

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_ORACLE_CAP = 4
_EXIT_IO = 5


@dataclass
class BenchRecord:
    """One CSV row of a benchmark sweep."""

    method: str
    elements: int
    ny: int
    nx: int
    ne: int
    nb: int
    tol: float
    construction_s: float = 0.0
    solve_s: float = 0.0
    matvec_s: float = 0.0
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


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]
CSV_SCHEMA_VERSION = 1


def _blank_record(spec: ArrayProblemSpec, method: str, tol: float) -> BenchRecord:
    """Record with the exact storage formulas pre-filled from the grid."""
    rec = BenchRecord(
        method=method,
        elements=spec.elements,
        ny=spec.ny,
        nx=spec.nx,
        ne=spec.ne,
        nb=spec.nb,
        tol=tol,
    )
    rec.mem_generator = (2 * spec.ny - 1) * (2 * spec.nx - 1) * spec.ne**2 * 16
    rec.mem_dense_equivalent = (spec.ny * spec.nx * spec.ne + spec.nb) ** 2 * 16
    return rec


def _time_matvec(op: BorderedOperator, reps: int, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((op.dim, 1)) + 1j * rng.standard_normal((op.dim, 1))
    bordered_matvec(op, x)  # warm up FFT plans and pools
    best = math.inf
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        bordered_matvec(op, x)
        best = min(best, time.perf_counter() - t0)
    return best


def run_method(
    sys_: BorderedSystem,
    v: np.ndarray,
    method: str,
    tol: float,
    max_iter: int = 2000,
    cap: int = DEFAULT_ORACLE_CAP,
    matvec_reps: int = 0,
) -> tuple[np.ndarray, BenchRecord, SolveReport | None]:
    """Solve with one named method and fill a benchmark record.

    Solve time follows the usual accounting: the dense methods include
    the dense fill, the bordering method includes the level-1 fill, the
    FFT methods include the spectral precompute and preconditioner
    build.  Residuals are true unpreconditioned relative residuals; the
    GMRES methods take them from the residual the solve computes at exit.
    """
    if method not in BENCH_METHODS:
        raise InvalidSpec(f"unknown method {method!r} (choose from {', '.join(BENCH_METHODS)})")
    rec = _blank_record(sys_.spec, method, tol)
    report: SolveReport | None = None
    cfg = GmresConfig(tol=tol, max_iter=max_iter)

    t0 = time.perf_counter()
    if method == "dense":
        full = assemble_full(sys_, cap)
        x = numerics.lu_solve(numerics.lu_factor(full), v)
        rec.dense_allocated = True
        rec.solve_s = time.perf_counter() - t0
        rec.residual = float(np.linalg.norm(full @ x - v) / np.linalg.norm(v))
        return x, rec, None

    if method == "gmres-dense":
        full = assemble_full(sys_, cap)
        p = build_pk(sys_)
        x, report = solve_multi_rhs_vectorized(full.__matmul__, p, v, cfg, method=method)
        rec.dense_allocated = True
        rec.solve_s = time.perf_counter() - t0
        rec.iterations = report.iterations
        rec.mem_krylov = report.memory_estimate["krylov"]
        rec.mem_precond = p.stored_bytes
        rec.residual = report.final_residual
        return x, rec, report

    if method == "rybicki":
        x, report = schur_solve(sys_, v, inner="rybicki")
        rec.solve_s = time.perf_counter() - t0
        rec.mem_level1 = report.memory_estimate.get("level1", 0)
        op = BorderedOperator.from_system(sys_)
        rec.residual = float(np.linalg.norm(bordered_matvec(op, x) - v) / np.linalg.norm(v))
        if matvec_reps:
            rec.matvec_s = _time_matvec(op, matvec_reps)
        return x, rec, report

    # mlfft-<precond>-<mode>
    _, precond_name, mode = method.split("-")
    op = BorderedOperator.from_system(sys_)
    t_pre = time.perf_counter()
    p = build_pk(sys_) if precond_name == "pk" else build_pz(sys_)
    precond_build = time.perf_counter() - t_pre
    if mode == "vec":
        x, report = solve_multi_rhs_vectorized(op, p, v, cfg, method=method)
        rec.iterations = report.iterations
        rec.mem_krylov = report.memory_estimate["krylov"]
        rec.residual = report.final_residual
    else:
        x, reports = solve_multi_rhs_sequential(op, p, v, cfg, method=method)
        rec.iterations = max(r.iterations for r in reports)
        krylov = [r.memory_estimate["krylov"] for r in reports]
        rec.mem_krylov = max(sum(krylov[i : i + SEQUENTIAL_BLOCK])
                             for i in range(0, len(krylov), SEQUENTIAL_BLOCK))
        # ||V - ZX||_F / ||V||_F from the per-column relative residuals
        b_norms = np.linalg.norm(v, axis=0)
        r_norms = np.array([r.final_residual for r in reports]) * b_norms
        rec.residual = float(np.linalg.norm(r_norms) / np.linalg.norm(b_norms))
        report = reports[0]
    report.phase_timings["precond_build"] = precond_build
    rec.solve_s = time.perf_counter() - t0
    rec.mem_generator = op.generator_bytes
    rec.mem_precond = p.stored_bytes
    if matvec_reps:
        rec.matvec_s = _time_matvec(op, matvec_reps)
    return x, rec, report


def _square_grid(elements: int) -> int:
    side = math.isqrt(elements)
    if side * side != elements:
        raise InvalidSpec(f"bench sizes must be perfect squares of elements, got {elements}")
    return side


def run_bench(
    sizes,
    methods,
    ne: int,
    tol: float,
    seed: int = 0,
    nb: int | None = None,
    max_iter: int = 2000,
    cap: int = DEFAULT_ORACLE_CAP,
    matvec_reps: int = 3,
    feed: int = 0,
    progress=None,
) -> list[BenchRecord]:
    """Run a (sizes x methods) sweep; failures are recorded, not fatal."""
    sizes = list(sizes)
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise InvalidSpec(f"sizes must be strictly ascending, got {sizes}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise InvalidSpec(f"unknown method {m!r}")

    records: list[BenchRecord] = []
    for elements in sizes:
        side = _square_grid(elements)
        spec = ArrayProblemSpec(ny=side, nx=side, ne=ne, nb=nb, seed=seed)
        t0 = time.perf_counter()
        sys_ = generate(spec)
        construction = time.perf_counter() - t0
        v = build_excitations(sys_, feed).matrix
        for method in methods:
            if progress:
                progress(f"size {elements} method {method}")
            try:
                _, rec, _ = run_method(sys_, v, method, tol, max_iter, cap, matvec_reps)
            except (ToepsolveError, np.linalg.LinAlgError) as exc:
                rec = _blank_record(spec, method, tol)
                rec.ok = False
                rec.error = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, NoConvergence) and exc.report is not None:
                    rec.iterations = exc.report.iterations
                    rec.mem_krylov = exc.report.memory_estimate["krylov"]
            rec.construction_s = construction
            records.append(rec)
    return records


def fit_exponent(records, field: str = "solve_s") -> dict[str, float]:
    """Log-log least-squares slope of a timing field versus element count."""
    out: dict[str, float] = {}
    by_method: dict[str, list[BenchRecord]] = {}
    for rec in records:
        if rec.ok and getattr(rec, field) > 0.0:
            by_method.setdefault(rec.method, []).append(rec)
    for method, recs in by_method.items():
        if len(recs) >= 2:
            xs = np.log([r.elements for r in recs])
            ys = np.log([getattr(r, field) for r in recs])
            out[method] = float(np.polyfit(xs, ys, 1)[0])
    return out


def _write_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, c) for c in CSV_COLUMNS])


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
    try:
        x, rec, report = run_method(sys_, v, tag, args.tol, args.max_iter, args.cap)
    except NoConvergence as exc_nc:
        x = exc_nc.solution
        report = exc_nc.report or (exc_nc.reports[0] if exc_nc.reports else SolveReport())
        rec = _blank_record(sys_.spec, tag, args.tol)
        rec.ok = False
        rec.error = str(exc_nc)
        rec.iterations = report.iterations
        status = _EXIT_NO_CONVERGENCE

    if x is not None:
        np.ascontiguousarray(x, dtype="<c16").tofile(out_path)
    payload = {"record": asdict(rec), "report": report.as_dict() if report else None,
               "rhs_columns": int(v.shape[1]), "schema_version": CSV_SCHEMA_VERSION}
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"{tag}: dim={sys_.dim}, rhs={v.shape[1]}, iterations={rec.iterations}, "
        f"residual={rec.residual:.3e}, solve={rec.solve_s:.3f}s -> {out_path}"
    )
    if status:
        print(f"warning: {rec.error}", file=sys.stderr)
    return status


def _cmd_bench(args) -> int:
    sizes = [int(t) for t in args.sizes.split(",") if t]
    methods = [t.strip() for t in args.methods.split(",") if t.strip()]
    records = run_bench(
        sizes,
        methods,
        ne=args.ne,
        tol=args.tol,
        seed=args.seed,
        nb=args.nb,
        max_iter=args.max_iter,
        cap=args.cap,
        matvec_reps=args.matvec_reps,
        progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
    )
    _write_csv(args.csv, records)
    print(f"wrote {len(records)} rows to {args.csv}")
    for field_name in ("solve_s", "matvec_s"):
        for method, slope in sorted(fit_exponent(records, field_name).items()):
            print(f"scaling {field_name} {method}: exponent {slope:.2f}")
    failures = [r for r in records if not r.ok]
    for rec in failures:
        print(f"warning: {rec.method} at {rec.elements} elements failed: {rec.error}", file=sys.stderr)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    sys_ = _load_or_generate(args)
    v = build_excitations(sys_, args.feed).matrix
    full = assemble_full(sys_, args.cap)
    x_ref = numerics.lu_solve(numerics.lu_factor(full), v)
    ref_norm = np.linalg.norm(x_ref)

    methods = ["rybicki", "mlfft-pk-vec", "mlfft-pz-vec", "mlfft-pk-seq"]
    ok = True
    print(f"verify: dim={sys_.dim}, rhs={v.shape[1]}, tol={args.tol:g}")
    for method in methods:
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
        description="Solvers and benchmarks for bordered two-level block-Toeplitz systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic problem to a TBZ file")
    _add_spec_flags(p)
    p.add_argument("-o", "--output", required=True, help="output TBZ path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve a TBZ problem and write currents + report")
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

    p = sub.add_parser("bench", help="sweep sizes x methods and write a CSV")
    p.add_argument("--sizes", required=True, help="comma list of element counts (perfect squares), ascending")
    p.add_argument("--methods", default="dense,rybicki,mlfft-pk-vec",
                   help=f"comma list from: {','.join(BENCH_METHODS)}")
    p.add_argument("--ne", type=int, default=8)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--matvec-reps", type=int, default=3)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_bench)

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

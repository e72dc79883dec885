"""Per-layer metrics from the spans of one traced operation.

The layers are the package's modules.  ``WRAPS`` lists the public
functions the traced run wraps, at the attribute each caller looks up,
and the span each call opens.  ``layer_metrics`` turns the spans into the
``per_layer`` metrics that ``BENCHMARK.json`` declares; a metric whose
spans could not be wrapped is reported as ``None`` (unmeasured).
"""

from __future__ import annotations

import math
import statistics

from . import declared
from .spans import Span, Tracer, self_times

_C16 = 16  # bytes per complex128 scalar


def _fft_name(args, kwargs) -> str:
    direction = kwargs.get("direction", args[4] if len(args) > 4 else "forward")
    return "toeplitz.fft_fwd" if direction == "forward" else "toeplitz.fft_inv"


def _matvec_attrs(args, kwargs, outcome) -> dict:
    op, u = args[0], args[1]
    return {"width": 1 if u.ndim == 1 else int(u.shape[1]),
            "grid": [op.n2, op.n1, op.n0]}


def _gmres_attrs(args, kwargs, outcome) -> dict:
    rhs = args[2]
    if isinstance(outcome, BaseException):
        reports = getattr(outcome, "reports", None) or [getattr(outcome, "report", None)]
    else:
        reports = outcome[1] if isinstance(outcome[1], list) else [outcome[1]]
    iterations = [r.iterations for r in reports if r is not None]
    width = int(rhs.shape[1]) if len(reports) == 1 else 1
    return {"iterations": iterations, "width": width, "dim": int(rhs.shape[0])}


def _rybicki_attrs(args, kwargs, outcome) -> dict:
    blocks, y = args[0], args[1]
    return {"n": (blocks.shape[0] + 1) // 2, "side": int(blocks.shape[1]),
            "width": 1 if y.ndim == 1 else int(y.shape[1])}


# (target, span name, attrs): target is "module:attr" or "module:Class.attr",
# the binding its caller looks up at call time.
WRAPS = [
    ("toepsolve.problems:generate", "problems.generate", None),
    ("toepsolve.problems:save", "problems.save", None),
    ("toepsolve.cli:load", "problems.load", None),
    ("toepsolve.solvers.bordered:precompute_spectral", "toeplitz.precompute_spectral", None),
    ("toepsolve.solvers.bordered:matvec", "toeplitz.matvec", _matvec_attrs),
    ("toepsolve.toeplitz:pad_rhs", "toeplitz.pad", None),
    ("toepsolve.toeplitz:block_fft_2l", _fft_name, None),
    ("toepsolve.toeplitz:extract_result", "toeplitz.extract", None),
    ("toepsolve.solvers.gmres:bordered_matvec", "bordered.matvec", None),
    ("toepsolve.cli:bordered_matvec", "bordered.matvec", None),
    ("toepsolve.cli:build_pk", "precond.build", None),
    ("toepsolve.solvers.precond:Preconditioner.apply", "precond.apply", None),
    ("toepsolve.cli:solve_multi_rhs_vectorized", "gmres.solve", _gmres_attrs),
    ("toepsolve.cli:solve_multi_rhs_sequential", "gmres.solve", _gmres_attrs),
    ("toepsolve.solvers.schur:assemble_level1", "rybicki.assemble_level1", None),
    ("toepsolve.solvers.schur:rybicki_solve", "rybicki.solve", _rybicki_attrs),
    ("toepsolve.cli:schur_solve", "schur.solve", None),
    ("toepsolve.numerics:lu_factor", "numerics.lu_factor", None),
    ("toepsolve.numerics:lu_solve", "numerics.lu_solve", None),
    ("toepsolve.cli:run_method", "cli.run_method", None),
    ("toepsolve.cli:main", "cli.main", None),
]

# metric -> the span names it is computed from; BENCHMARK.json declares its unit
PER_LAYER = {
    "problems.generate_s": ["problems.generate"],
    "problems.save_s": ["problems.save"],
    "problems.load_s": ["problems.load"],
    "problems.load_mb_per_s": ["problems.load"],
    "toeplitz.precompute_spectral_s": ["toeplitz.precompute_spectral"],
    "toeplitz.matvec_calls": ["toeplitz.matvec"],
    "toeplitz.matvec_cols": ["toeplitz.matvec"],
    "toeplitz.matvec_s": ["toeplitz.matvec"],
    "toeplitz.pad_s": ["toeplitz.matvec", "toeplitz.pad"],
    "toeplitz.fft_fwd_s": ["toeplitz.matvec", "toeplitz.fft_fwd"],
    "toeplitz.block_mul_s": ["toeplitz.matvec", "toeplitz.pad", "toeplitz.fft_fwd",
                             "toeplitz.fft_inv", "toeplitz.extract"],
    "toeplitz.fft_inv_s": ["toeplitz.matvec", "toeplitz.fft_inv"],
    "toeplitz.extract_s": ["toeplitz.matvec", "toeplitz.extract"],
    "toeplitz.fft_len": ["toeplitz.matvec"],
    "toeplitz.matvec_flops": ["toeplitz.matvec"],
    "toeplitz.matvec_bytes": ["toeplitz.matvec"],
    "toeplitz.ops_per_byte": ["toeplitz.matvec"],
    "bordered.matvec_calls": ["bordered.matvec"],
    "bordered.matvec_s": ["bordered.matvec"],
    "bordered.self_s": ["bordered.matvec", "toeplitz.matvec"],
    "precond.build_s": ["precond.build"],
    "precond.apply_calls": ["precond.apply"],
    "precond.apply_s": ["precond.apply"],
    "gmres.calls": ["gmres.solve"],
    "gmres.iterations_max": ["gmres.solve"],
    "gmres.iterations_total": ["gmres.solve"],
    "gmres.self_s": ["gmres.solve", "bordered.matvec", "precond.apply"],
    "gmres.krylov_bytes": ["gmres.solve"],
    "rybicki.assemble_level1_s": ["rybicki.assemble_level1"],
    "rybicki.solve_s": ["rybicki.solve"],
    "rybicki.steps": ["rybicki.solve"],
    "rybicki.rhs_cols": ["rybicki.solve"],
    "rybicki.flops": ["rybicki.solve"],
    "schur.self_s": ["schur.solve", "rybicki.solve", "rybicki.assemble_level1"],
    "numerics.lu_factor_calls": ["numerics.lu_factor"],
    "numerics.lu_factor_s": ["numerics.lu_factor"],
    "numerics.lu_solve_calls": ["numerics.lu_solve"],
    "numerics.lu_solve_s": ["numerics.lu_solve"],
    "cli.run_method_s": ["cli.run_method"],
    "cli.self_s": ["cli.run_method"],
    "trace.overhead_frac": [],
}


def install(tracer: Tracer) -> set[str]:
    """Wrap every target; return the span names none of whose targets exist."""
    wrapped: dict[str, bool] = {}
    for target, name, attrs in WRAPS:
        ok = tracer.wrap(target, name, attrs)
        names = ["toeplitz.fft_fwd", "toeplitz.fft_inv"] if callable(name) else [name]
        for n in names:
            wrapped[n] = wrapped.get(n, False) or ok
    return {n for n, ok in wrapped.items() if not ok}


# ------------------------------------------------------------ cost models


def matvec_cost(n2: int, n1: int, n0: int, width: int) -> tuple[float, float]:
    """Nominal flops and bytes of one Toeplitz matvec on ``width`` columns.

    Flops: two 2-D FFTs of size k2 x k1 over n0*width batches at the
    conventional 5 N log2 N real flops each, plus k2*k1 dense n0 x n0 block
    products at 8 real flops per complex multiply-add.  Bytes: every stage
    reads its input and writes its output once (two passes per 2-D FFT),
    and the block multiply also reads the spectral blocks.
    """
    k2, k1 = 2 * n2 - 1, 2 * n1 - 1
    points = k2 * k1
    padded = points * n0 * width
    dim = n2 * n1 * n0 * width
    fft = 5.0 * points * math.log2(points) * n0 * width
    flops = 2 * fft + 8.0 * points * n0 * n0 * width
    scalars = ((dim + padded)            # pad
               + 4 * padded              # forward FFT, two axis passes
               + 2 * padded + points * n0 * n0  # block multiply
               + 4 * padded              # inverse FFT
               + 2 * dim)                # extract
    return flops, scalars * _C16


def rybicki_flops(n: int, side: int, width: int) -> float:
    """Real flops of ``rybicki_solve`` on n block rows of side ``side``.

    Counts the block products of every recursion step (8 real flops per
    complex multiply-add), an LU factorisation as 8/3 side^3 and an LU
    solve as 8 side^2 per right-hand side column.
    """
    s3, s2w = side ** 3, side * side * width
    lu, solve_x, solve_blocks = 8.0 / 3.0 * s3, 8.0 * s2w, 8.0 * s3
    total = lu + solve_x + 2 * solve_blocks  # base stage: R_0 factor, x_1, G_1, H_1
    for m in range(1, n):
        total += 8.0 * m * s3 + lu + 8.0 * m * s2w + solve_x + 8.0 * m * s2w  # D1, x
        if m < n - 1:
            total += 8.0 * m * s3 + lu + 2 * (8.0 * m * s3 + solve_blocks) + 2 * 8.0 * m * s3
    return total


# ------------------------------------------------------------ metrics


def _mode(values):
    return max(set(values), key=values.count) if values else None


def layer_metrics(op: list[Span], setup: list[Span], unmeasured: set[str],
                  traced_wall: float, untraced_wall: float, file_bytes: int) -> dict:
    """Every ``PER_LAYER`` metric from the op's spans (``op[0]`` is its root)."""
    selfs = self_times(op)
    by_name: dict[str, list[Span]] = {}
    for s in op[1:]:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(prefix):
        return sum(selfs[s.id] for s in op[1:] if s.name.startswith(prefix))

    def setup_median(name):
        d = [s.duration for s in setup if s.name == name]
        return statistics.median(d) if d else 0.0

    # stages of one matvec at the workload's width (the most common width)
    matvecs = named("toeplitz.matvec")
    width = _mode([s.attrs["width"] for s in matvecs])
    at_width = {s.id for s in matvecs if s.attrs["width"] == width}
    stage = {n: 0.0 for n in ("toeplitz.pad", "toeplitz.fft_fwd", "toeplitz.fft_inv",
                              "toeplitz.extract")}
    for s in op:
        if s.parent in at_width and s.name in stage:
            stage[s.name] += s.duration
    per_call = 1.0 / len(at_width) if at_width else 0.0
    block_mul = sum(selfs[i] for i in at_width) * per_call
    if matvecs:
        n2, n1, n0 = matvecs[0].attrs["grid"]
        fft_len = (2 * n2 - 1) * (2 * n1 - 1)
        flops, nbytes = matvec_cost(n2, n1, n0, width)
    else:
        fft_len, flops, nbytes = 0, 0.0, 0.0

    solves = named("gmres.solve")
    iterations = [i for s in solves for i in s.attrs["iterations"]]
    krylov = max((max(s.attrs["iterations"], default=0) * s.attrs["width"] * s.attrs["dim"]
                  * _C16 for s in solves), default=0)
    rybicki = named("rybicki.solve")
    load_s = total("problems.load")

    values = {
        "problems.generate_s": setup_median("problems.generate"),
        "problems.save_s": setup_median("problems.save"),
        "problems.load_s": load_s,
        "problems.load_mb_per_s": file_bytes / 1e6 / load_s if load_s else 0.0,
        "toeplitz.precompute_spectral_s": total("toeplitz.precompute_spectral"),
        "toeplitz.matvec_calls": len(matvecs),
        "toeplitz.matvec_cols": sum(s.attrs["width"] for s in matvecs),
        "toeplitz.matvec_s": total("toeplitz.matvec"),
        "toeplitz.pad_s": stage["toeplitz.pad"] * per_call,
        "toeplitz.fft_fwd_s": stage["toeplitz.fft_fwd"] * per_call,
        "toeplitz.block_mul_s": block_mul,
        "toeplitz.fft_inv_s": stage["toeplitz.fft_inv"] * per_call,
        "toeplitz.extract_s": stage["toeplitz.extract"] * per_call,
        "toeplitz.fft_len": fft_len,
        "toeplitz.matvec_flops": flops,
        "toeplitz.matvec_bytes": nbytes,
        "toeplitz.ops_per_byte": flops / nbytes if nbytes else 0.0,
        "bordered.matvec_calls": len(named("bordered.matvec")),
        "bordered.matvec_s": total("bordered.matvec"),
        "bordered.self_s": self_total("bordered."),
        "precond.build_s": total("precond.build"),
        "precond.apply_calls": len(named("precond.apply")),
        "precond.apply_s": total("precond.apply"),
        "gmres.calls": len(iterations),
        "gmres.iterations_max": max(iterations, default=0),
        "gmres.iterations_total": sum(iterations),
        "gmres.self_s": self_total("gmres."),
        "gmres.krylov_bytes": krylov,
        "rybicki.assemble_level1_s": total("rybicki.assemble_level1"),
        "rybicki.solve_s": total("rybicki.solve"),
        "rybicki.steps": sum(s.attrs["n"] - 1 for s in rybicki),
        "rybicki.rhs_cols": sum(s.attrs["width"] for s in rybicki),
        "rybicki.flops": sum(rybicki_flops(s.attrs["n"], s.attrs["side"], s.attrs["width"])
                             for s in rybicki),
        "schur.self_s": self_total("schur."),
        "numerics.lu_factor_calls": len(named("numerics.lu_factor")),
        "numerics.lu_factor_s": total("numerics.lu_factor"),
        "numerics.lu_solve_calls": len(named("numerics.lu_solve")),
        "numerics.lu_solve_s": total("numerics.lu_solve"),
        "cli.run_method_s": total("cli.run_method"),
        "cli.self_s": self_total("cli."),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return {name: {"value": None if unmeasured.intersection(PER_LAYER[name]) else values[name],
                   "unit": unit}
            for name, unit in declared("per_layer").items()}


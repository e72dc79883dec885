"""Run one workload: set up, time, check against the oracle, trace, report.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``solve_s``: median wall time of the timed operation over at least
  ``MIN_SAMPLES`` samples (more while the run's seconds last), after one
  untimed warm-up operation;
* ``setup_s``: median time to generate the inputs (and write the TBZ
  file), repeated ``SETUP_REPS`` times (``SETUP_REPS_FILE`` for a file
  workload);
* ``peak_mem_mb``: the resident high-water mark after one set-up and one
  untimed warm-up operation, above the resident size before set-up: the
  inputs plus the operation's working set.  The warm-up runs before the
  oracle is built and does not perturb the timed samples.  The mark
  never falls, so every workload needs a process of its own.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced sample with the median wall time, plus
the tracing overhead.  Every sample's solution is checked column by
column against the dense-LU oracle, which is built and applied untimed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from . import ROOT, THREAD_VARS, declared, layers
from .spans import Tracer, subtree
from .workloads import WORKLOADS, Oracle, Workload, make_inputs, run_op

MIN_SAMPLES = 3
TRACE_MIN_PAIRS = 2  # untraced and traced samples each, with --trace 1
SETUP_REPS = 41  # one set-up of a 16x16 workload takes about 0.07 s
SETUP_REPS_FILE = 5  # writing the TBZ file takes about 1.2 s


# ------------------------------------------------------------ environment


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    model = platform.processor()
    if model:
        return model
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ------------------------------------------------------------ measurement


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _setup(workload: Workload, seed: int, workdir: Path, tracer: Tracer | None, reps: int):
    times, spans = [], []
    for _ in range(reps):
        if tracer is not None:
            tracer.clear()
            layers.install(tracer)
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed, str(workdir / "input.tbz"))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.unwrap_all()
            spans.extend(tracer.spans)
    return inputs, times, spans


def _status_kb(field: str) -> int:
    """A ``Vm*`` field of this process's status (Linux), in KiB.

    Unlike ``ru_maxrss``, the high-water mark belongs to this address
    space alone: it does not inherit the resident size of a parent.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    """Set up, time, check and (with ``trace``) trace one workload; return the result."""
    workdir = outdir / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    rss0 = _status_kb("VmRSS")
    inputs, setup_times, setup_spans = _setup(workload, seed, workdir, tracer, 1)
    # The untimed warm-up fills FFT plan caches and the heap.  It runs after a
    # single set-up and before the oracle is built, so the high-water mark is
    # one set-up plus one operation; more set-ups first would leave a
    # fragmented heap whose reuse varies from run to run.
    run_op(workload, inputs, str(workdir), "warmup")
    peak_mb = (_status_kb("VmHWM") - rss0) * 1024 / 1e6
    reps = (SETUP_REPS_FILE if workload.via_file else SETUP_REPS) - 1
    _, more_times, more_spans = _setup(workload, seed, workdir, tracer, reps)
    setup_times += more_times
    setup_spans += more_spans
    oracle = Oracle.build(inputs)
    file_bytes = os.path.getsize(inputs.tbz) if inputs.tbz else 0

    samples: list[float] = []
    traced: list[tuple[float, list]] = []
    checks: list[dict] = []
    unmeasured: set[str] = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tracing = trace and i % 2 == 1
        if tracing:
            tracer.clear()
            unmeasured = layers.install(tracer)
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        outcome = run_op(workload, inputs, str(workdir), str(i))
        wall = time.perf_counter() - t0
        if tracing:
            tracer.close(root)
            tracer.unwrap_all()
            traced.append((wall, subtree(tracer.spans, root)))
        else:
            samples.append(wall)
        checks.append(oracle.check(outcome, workload.deviation_bound))
        i += 1
        done = min(len(samples), len(traced)) if trace else len(samples)
        if done >= (TRACE_MIN_PAIRS if trace else MIN_SAMPLES) and time.perf_counter() >= deadline:
            break

    attempted = sum(c["columns"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    correct = all(c["correct"] for c in checks)
    result = {
        "workload": workload.name, "grid": [workload.ny, workload.nx], "method": workload.method,
        "dim": int(inputs.v.shape[0]), "rhs": int(inputs.v.shape[1]), "seed": seed,
        "seconds": seconds, "trace": int(trace), "environment": environment(seed),
        "setup_s_samples": setup_times, "solve_s_samples": samples,
        "fail_frac": failed / attempted, "columns": checks,
    }
    if trace:
        walls = [w for w, _ in traced]
        op_spans = traced[walls.index(statistics.median_low(walls))][1]
        metrics = layers.layer_metrics(op_spans, setup_spans, unmeasured,
                                       statistics.median(walls), statistics.median(samples),
                                       file_bytes)
        result.update(traced_s_samples=walls, unmeasured=sorted(unmeasured),
                      setup_spans=[s.as_dict() for s in setup_spans],
                      op_spans=[s.as_dict() for s in op_spans])
    else:
        values = {"solve_s": statistics.median(samples),
                  "setup_s": statistics.median(setup_times), "peak_mem_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared("end_to_end").items()}
    result.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    _cleanup(workdir)
    return result


def _cleanup(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()


# ------------------------------------------------------------ reporting


def summary_lines(result: dict) -> list[str]:
    r = result
    lines = [f"workload {r['workload']}  seed {r['seed']}  grid {r['grid'][0]}x{r['grid'][1]}  "
             f"dim {r['dim']}  rhs {r['rhs']}  method {r['method']}  trace {r['trace']}"]
    for name, key in (("solve_s", "solve_s_samples"), ("setup_s", "setup_s_samples"),
                      ("traced_s", "traced_s_samples")):
        values = r.get(key)
        if values:
            q1, q2, q3 = _quartiles(values)
            lines.append(f"  {name:<12} {q2:10.4f} s    q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    if "peak_mem_mb" in r["metrics"]:
        lines.append(f"  {'peak_mem_mb':<12} {r['metrics']['peak_mem_mb']['value']:10.1f} MB   n=1")
    c = r["columns"]
    lines.append(
        f"  {'fail_frac':<12} {r['fail_frac']:10.4f}      {r['failed']}/{r['attempted']} columns "
        f"over n={len(c)} solves; residual>tol {sum(x['failed_residual'] for x in c)}, "
        f"deviation>{c[0]['deviation_bound']:.0e} {sum(x['failed_deviation'] for x in c)}, "
        f"raised {sum(x['raised'] for x in c)}; max residual "
        f"{max(x['max_residual'] for x in c):.2e}, max deviation "
        f"{max(x['max_deviation'] for x in c):.2e}")
    if r["trace"]:
        for name, m in r["metrics"].items():
            value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"  {name:<32} {value:>14} {m['unit']}")
    lines.append(f"  correct {r['correct']}")
    return lines


#!/usr/bin/env python3
"""Benchmark of the toepsolve solvers, checked against a dense-LU oracle.

Run from the repository root:

    python3 perfbench/run.py --workload gmres-block --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

``--workload`` is one of gmres-block, direct-schur, file-seq, or ``all``
(every workload, each in a fresh child process so that its memory
high-water mark is its own).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each result,
with its environment block, samples, column checks and (traced) spans,
is also written to ``perfbench/results/``.

BLAS and OpenMP pools are capped at one thread before numpy is imported.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as a package, not from its directory


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _in_child(fn, *args):
    """``fn(*args)`` in a fresh interpreter, which has its own ``VmHWM``."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def main(argv=None) -> int:
    args = _parse(argv)
    from perfbench import bootstrap

    if not bootstrap():
        print(f"error: no toepsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import json

    from perfbench import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} (choose from "
              f"{', '.join(harness.WORKLOADS)} or all)", file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        run = (harness.run_workload, harness.WORKLOADS[name], args.seed, args.seconds,
               bool(args.trace), RESULTS)
        result = _in_child(*run) if len(names) > 1 else run[0](*run[1:])
        with open(RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        print("\n".join(harness.summary_lines(result)), flush=True)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

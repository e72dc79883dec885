#!/usr/bin/env python3
"""Ungated scaling sweep of the dense, Rybicki and FFT-GMRES solvers.

Run from the repository root:

    python3 perfbench/sweep.py

For every square grid side in ``SIDES`` and every method, the sweep
solves the benchmark's inputs (reference geometry relabelled by seed
``SEED``, feed-0 excitations of every element, tol 1e-3) through
``cli.run_method``: one warm-up solve, then ``REPEATS`` timed solves,
reporting min and median.  It fits the log-log slope of the median solve
time against the system dimension for each method, and states where each
pair of methods crosses over: between two measured sizes when the order
flips inside the sweep, else from the fitted power laws (marked as
extrapolated).  The result is written to ``perfbench/results/sweep.json``.
The sweep is not a gated workload of ``BENCHMARK.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as a package, not from its directory

METHODS = ("dense", "rybicki", "mlfft-pk-vec")
SIDES = (4, 8, 12, 16)
REPEATS = 3
SEED = 0


def crossovers(rows: list[dict], fits: dict) -> list[dict]:
    """Where each pair of methods swaps order, measured or extrapolated."""
    import math

    out = []
    for i, a in enumerate(METHODS):
        for b in METHODS[i + 1:]:
            pts = [(r["dim"], r[a]["median_s"], r[b]["median_s"]) for r in rows]
            entry = {"methods": [a, b]}
            for (d0, a0, b0), (d1, a1, b1) in zip(pts, pts[1:]):
                if (a0 < b0) != (a1 < b1):
                    entry.update(kind="measured", between_dims=[d0, d1],
                                 faster_above=a if a1 < b1 else b)
                    break
            else:
                (pa, ca), (pb, cb) = fits[a], fits[b]
                faster = a if pts[-1][1] < pts[-1][2] else b
                entry["faster_in_sweep"] = faster
                # the slower method overtakes only if its fitted exponent is smaller
                if pa != pb and (a if pa < pb else b) != faster:
                    entry.update(kind="extrapolated", dim=math.exp((cb - ca) / (pa - pb)),
                                 faster_above=a if pa < pb else b)
                else:
                    entry.update(kind="none")
            out.append(entry)
    return out


def main() -> int:
    from perfbench import bootstrap

    if not bootstrap():
        print(f"error: no toepsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import json
    import statistics
    import time
    from dataclasses import replace

    import numpy as np

    from perfbench.harness import environment
    from perfbench.workloads import TOL, WORKLOADS, make_inputs
    from toepsolve import cli

    rows = []
    for side in SIDES:
        inputs = make_inputs(replace(WORKLOADS["gmres-block"], ny=side, nx=side), SEED)
        row = {"side": side, "dim": int(inputs.v.shape[0]), "rhs": int(inputs.v.shape[1])}
        for method in METHODS:
            times = []
            for rep in range(REPEATS + 1):  # the first solve is the warm-up
                t0 = time.perf_counter()
                _, rec, _ = cli.run_method(inputs.system, inputs.v, method, TOL)
                if rep:
                    times.append(time.perf_counter() - t0)
            row[method] = {"min_s": min(times), "median_s": statistics.median(times),
                           "samples_s": times, "iterations": rec.iterations,
                           "residual": rec.residual}
            print(f"side {side:3d}  dim {row['dim']:5d}  {method:<13} median "
                  f"{row[method]['median_s']:9.4f} s  min {row[method]['min_s']:9.4f} s  "
                  f"n={len(times)}", flush=True)
        rows.append(row)

    dims = np.log([r["dim"] for r in rows])
    fits = {m: tuple(np.polyfit(dims, np.log([r[m]["median_s"] for r in rows]), 1))
            for m in METHODS}
    cross = crossovers(rows, fits)
    for m, (slope, _) in fits.items():
        print(f"exponent {m:<13} {slope:.2f}  (median solve time ~ dim^p)")
    for c in cross:
        a, b = c["methods"]
        if c["kind"] == "measured":
            print(f"crossover {a} / {b}: measured between dim {c['between_dims'][0]} and "
                  f"{c['between_dims'][1]}; {c['faster_above']} is faster above")
        elif c["kind"] == "extrapolated":
            print(f"crossover {a} / {b}: none in the sweep ({c['faster_in_sweep']} faster); "
                  f"extrapolated at dim {c['dim']:.0f}, {c['faster_above']} faster above")
        else:
            print(f"crossover {a} / {b}: none ({c['faster_in_sweep']} faster throughout)")

    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "sweep.json"
    payload = {"environment": environment(SEED), "repeats": REPEATS, "tol": TOL,
               "rows": rows, "exponents": {m: f[0] for m, f in fits.items()},
               "crossovers": cross}
    path.write_text(json.dumps(payload, indent=1))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

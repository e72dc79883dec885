"""Tests of the benchmark harness, run on small grids in a few seconds."""

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from perfbench import ROOT

if importlib.util.find_spec("toepsolve") is None:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Oracle, Outcome, make_inputs, relabel, run_op,
)
from toepsolve import problems  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_SUM_BOUND = 0.01  # |traced wall - sum of layer self times| / traced wall
PEAK_SLACK_MB = 2.0  # run-to-run jitter of the resident high-water mark on small grids


def small(name: str):
    return replace(WORKLOADS[name], ny=3, nx=4)


def test_same_seed_regenerates_identical_inputs(tmp_path):
    w = small("file-seq")
    a = make_inputs(w, 7, str(tmp_path / "a.tbz"))
    b = make_inputs(w, 7, str(tmp_path / "b.tbz"))
    make_inputs(w, 8, str(tmp_path / "c.tbz"))
    assert (tmp_path / "a.tbz").read_bytes() == (tmp_path / "b.tbz").read_bytes()
    assert (tmp_path / "a.tbz").read_bytes() != (tmp_path / "c.tbz").read_bytes()
    np.testing.assert_array_equal(a.v, b.v)


def test_relabelled_system_is_a_permutation_similarity():
    base = problems.generate(small("gmres-block").spec())
    z0 = problems.assemble_full(base)
    for seed in range(4):
        z = problems.assemble_full(relabel(base, seed))
        np.testing.assert_allclose(np.linalg.svd(z, compute_uv=False),
                                   np.linalg.svd(z0, compute_uv=False), rtol=1e-12)
        np.testing.assert_array_equal(np.sort_complex(z.ravel()), np.sort_complex(z0.ravel()))


def test_oracle_flags_a_perturbed_column(tmp_path):
    w = small("direct-schur")
    inputs = make_inputs(w, 0)
    oracle = Oracle.build(inputs)
    x = run_op(w, inputs, str(tmp_path), "t").solution()
    clean = oracle.check(Outcome(x), w.deviation_bound)
    assert clean["failed"] == 0 and clean["correct"]

    x = x.copy()
    x[:, 5] *= 1 + 1e-6
    bad = oracle.check(Outcome(x), w.deviation_bound)
    assert (bad["failed"], bad["failed_deviation"], bad["correct"]) == (1, 1, False)

    raised = oracle.check(Outcome(None, "NoConvergence: stopped"), w.deviation_bound)
    assert raised["failed"] == inputs.v.shape[1] and not raised["correct"]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# Runs ``run.main`` on shrunken workloads with results in a given directory.
# The script caps the BLAS threads before numpy is imported, which an
# in-process run under pytest cannot do.
_SMALL_RUN = """
import sys
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, {root!r})
from perfbench import bootstrap
bootstrap()
from perfbench import run, workloads
for name, (ny, nx) in {grids!r}.items():
    workloads.WORKLOADS[name] = replace(workloads.WORKLOADS[name], ny=ny, nx=nx)
run.RESULTS = Path({out!r})
sys.exit(run.main(sys.argv[1:]))
"""

# gmres-block is the largest here, so that a memory high-water mark carried
# over from it would show in the workloads that run after it
SMALL_GRIDS = {"gmres-block": (8, 8), "direct-schur": (3, 4), "file-seq": (3, 4)}


def _run_small(out, workload, trace):
    script = _SMALL_RUN.format(root=str(ROOT), grids=SMALL_GRIDS, out=str(out))
    proc = subprocess.run([sys.executable, "-c", script, "--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload on a small grid, untraced and traced, through ``--workload all``."""
    out = tmp_path_factory.mktemp("results")
    found = {}
    for trace in ("0", "1"):
        _run_small(out, "all", trace)
        for name in WORKLOADS:
            found[name, trace] = json.loads((out / f"{name}-seed0-trace{trace}.json").read_text())
    return found


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_sum_to_traced_wall_time(results, name):
    """Spans nest, and the layer spans' self times add up to the timed wall time.

    Once every span closes inside its parent the sum holds by construction
    (self times telescope): it fails only when the timed operation's entry
    point is not wrapped or spans misnest.  The bound covers the clock
    readings between the harness's timer and the first span.
    """
    result = results[name, "1"]
    spans = [Span(d["id"], d["parent"], d["name"], d["start"], d["end"]) for d in result["op_spans"]]
    by_id = {s.id: s for s in spans}
    for s in spans[1:]:
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    selfs = self_times(spans)
    assert min(selfs.values()) >= -1e-9
    traced_wall = statistics.median_low(result["traced_s_samples"])
    covered = sum(selfs[s.id] for s in spans[1:])
    assert abs(traced_wall - covered) <= SELF_SUM_BOUND * traced_wall
    assert result["correct"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted(results, name, trace, declared):
    metrics = results[name, trace]["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_all_measures_each_workloads_own_peak_memory(results, tmp_path):
    """Under ``all`` a workload's peak is the one it has when run alone."""
    alone = _run_small(tmp_path, "direct-schur", "0")["metrics"]["peak_mem_mb"]["value"]
    in_all = results["direct-schur", "0"]["metrics"]["peak_mem_mb"]["value"]
    assert results["gmres-block", "0"]["metrics"]["peak_mem_mb"]["value"] > in_all + PEAK_SLACK_MB
    assert abs(in_all - alone) <= PEAK_SLACK_MB


def test_missing_entry_point_is_reported_unmeasured(monkeypatch):
    from toepsolve import cli

    monkeypatch.delattr(cli, "solve_multi_rhs_vectorized")
    monkeypatch.delattr(cli, "solve_multi_rhs_sequential")
    tracer = Tracer()
    try:
        unmeasured = layers.install(tracer)
    finally:
        tracer.unwrap_all()
    assert unmeasured == {"gmres.solve"}
    root = Span(0, None, "bench.op", 0.0, 1.0)
    metrics = layers.layer_metrics([root], [], unmeasured, 1.0, 1.0, 0)
    assert metrics["gmres.self_s"]["value"] is None
    assert metrics["gmres.iterations_total"]["value"] is None
    assert metrics["toeplitz.matvec_s"]["value"] == 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "gmres-block", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""

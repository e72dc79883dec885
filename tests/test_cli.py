"""Exit codes of the ``toepsolve`` command line on a 2x2 problem."""

import importlib
import inspect
import json
import re
import sys
from dataclasses import asdict

import numpy as np
import pytest

from helpers import BAD_HEADERS, json_edit, nonfinite_system, rewrite_header, wrap_generator
from toepsolve import cli
from toepsolve.errors import InvalidSpec, NoConvergence, ShapeError
from toepsolve.problems import (
    DEFAULT_ORACLE_CAP,
    ArrayProblemSpec,
    BorderedSystem,
    assemble_full,
    build_excitations,
    generate,
    load,
    save,
)
from toepsolve.solvers import Preconditioner, bordered, build_pk, build_pz, gmres, schur

DIM = 2 * 2 * 3 + 4  # ny * nx * ne + nb
COLUMNS = 4  # one excitation per element


@pytest.fixture
def problem(tmp_path):
    path = tmp_path / "p.tbz"
    argv = ["generate", "--ny", "2", "--nx", "2", "--ne", "3", "--nb", "4", "-o", str(path)]
    assert cli.main(argv) == 0
    return path


def test_generate_then_solve_writes_solution_and_report(problem):
    assert cli.main(["solve", str(problem)]) == 0
    sol = problem.with_name("p.tbz.sol")
    assert sol.stat().st_size == DIM * COLUMNS * 16
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert report["record"]["ok"] and report["record"]["rhs_columns"] == COLUMNS


def test_rhs_out_of_range_is_invalid_input(problem, capsys):
    assert cli.main(["solve", str(problem), "--rhs", "99"]) == 2
    assert "element 99 outside 0..3" in capsys.readouterr().err
    for bad in ("1.5", "x"):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", str(problem), "--rhs", bad])
        assert err.value.code == 2
        want = f'argument --rhs: expected "all" or a non-negative column index, got {bad!r}'
        assert want in capsys.readouterr().err


# block GMRES iterates depend on the block, so its --rhs column is checked by its
# residual instead (test_rhs_column_of_block_gmres_meets_tol)
@pytest.mark.parametrize("flags", [["--method", "rybicki"]])
def test_rhs_writes_that_column_of_the_all_column_solve(problem, flags):
    def solve(*extra):
        out = problem.with_name("x.sol")
        assert cli.main(["solve", str(problem), *flags, *extra, "-o", str(out)]) == 0
        return np.fromfile(out, dtype="<c16").reshape(DIM, -1)

    every = solve()
    assert every.shape == (DIM, COLUMNS)
    sys_ = load(problem)
    want = np.linalg.solve(assemble_full(sys_), build_excitations(sys_, 0).matrix)
    assert np.linalg.norm(every - want) <= 1e-12 * np.linalg.norm(want)
    for k in (1, 3):  # element 3 lies in the second block row
        one = solve("--rhs", str(k))
        assert one.shape == (DIM, 1)
        assert np.linalg.norm(one[:, 0] - every[:, k]) <= 1e-12 * np.linalg.norm(every[:, k])


def test_rhs_column_of_block_gmres_meets_tol(problem):
    out = problem.with_name("x.sol")
    assert cli.main(["solve", str(problem), "--rhs", "1", "-o", str(out)]) == 0
    x = np.fromfile(out, dtype="<c16").reshape(DIM, 1)
    sys_ = load(problem)
    v = build_excitations(sys_, 0).matrix[:, 1:2]
    assert np.linalg.norm(assemble_full(sys_) @ x - v) <= 1e-3 * np.linalg.norm(v)


@pytest.fixture
def singular(tmp_path):
    """TBZ of the 2x1 grid, ne 1, nb 0, whose three generator blocks are all 1.

    Z = [[1, 1], [1, 1]] is singular.
    """
    path = tmp_path / "singular.tbz"
    gen = wrap_generator(np.ones((3, 1, 1, 1)))
    spec = ArrayProblemSpec(ny=2, nx=1, ne=1, nb=0)
    save(BorderedSystem(gen, np.zeros((0, 2)), np.zeros((0, 0)), spec), path)
    return path


# an out-of-range feed index, a non-finite tolerance, a spec flag that a file would
# override, and a singular system for the Rybicki recursion and for LU
INVALID_INPUTS = {
    "solve-feed": ("problem", ["solve", "{}", "--feed", "99"]),
    "verify-feed": ("problem", ["verify", "{}", "--feed", "7"]),
    "solve-tol-inf": ("problem", ["solve", "{}", "--tol", "inf"]),
    "verify-tol-inf": ("problem", ["verify", "{}", "--tol", "inf"]),
    "verify-file-and-spec-flag": ("problem", ["verify", "{}", "--ny", "7"]),
    "singular-rybicki": ("singular", ["solve", "{}", "--method", "rybicki"]),
    "singular-dense": ("singular", ["solve", "{}", "--method", "dense"]),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_out_of_range_index_and_singular_system_are_invalid_input(request, capsys, case):
    fixture, argv = INVALID_INPUTS[case]
    path = request.getfixturevalue(fixture)
    assert cli.main([arg.format(path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.with_name(path.name + ".sol").exists()


@pytest.mark.parametrize("flag", [["--pitch", "inf"], ["--nb", "0", "--k", "nan"]],
                         ids=["pitch-inf", "k-nan"])
def test_non_finite_spec_is_invalid_input(tmp_path, capsys, flag):
    out = tmp_path / "p.tbz"
    assert cli.main(["generate", "--ny", "2", "--nx", "2", "--ne", "3", *flag, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_negative_seed_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "p.tbz"
    assert cli.main(["generate", "--ny", "2", "--nx", "2", "--seed", "-1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: nb and seed must be >= 0, got (32, -1)\n"
    assert not out.exists()


# the direct methods use neither flag, but a bad value is invalid input whatever runs
@pytest.mark.parametrize("method", ["dense", "gmres-dense", "rybicki", "mlfft"])
@pytest.mark.parametrize("flag", [["--tol", "nan"], ["--max-iter", "-5"]],
                         ids=["tol-nan", "max-iter-negative"])
def test_every_method_rejects_a_bad_tol_or_max_iter(problem, capsys, method, flag):
    assert cli.main(["solve", str(problem), "--method", method, *flag]) == 2
    assert re.match(r"error: (tol|max_iter) must be", capsys.readouterr().err)
    assert not problem.with_name("p.tbz.sol").exists()


def test_precond_none_is_not_a_solve_choice(problem):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(problem), "--precond", "none"])
    assert err.value.code == 2


@pytest.mark.parametrize("method", ["dense", "gmres-dense", "rybicki"])
@pytest.mark.parametrize("flag", [["--precond", "pz"], ["--multi", "seq"]])
def test_fft_flags_rejected_for_other_methods(problem, method, flag):
    assert cli.main(["solve", str(problem), "--method", method, *flag]) == 2
    assert not problem.with_name("p.tbz.sol").exists()


# --multi seq runs block GMRES too, and the record says so
@pytest.mark.parametrize("flag, tag", [([], "mlfft-pk-vec"), (["--precond", "pz"], "mlfft-pz-vec"),
                                       (["--multi", "seq"], "mlfft-pk-vec"),
                                       (["--precond", "pz", "--multi", "seq"], "mlfft-pz-vec")])
def test_fft_flags_select_the_mlfft_variant(problem, flag, tag):
    assert cli.main(["solve", str(problem), *flag]) == 0
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert report["record"]["method"] == tag


def test_multi_seq_and_vec_write_the_same_solution(problem):
    solutions = []
    for multi in ("seq", "vec"):
        out = problem.with_name(f"{multi}.sol")
        assert cli.main(["solve", str(problem), "--multi", multi, "-o", str(out)]) == 0
        report = json.loads(problem.with_name(f"{multi}.sol.json").read_text())
        assert report["record"]["method"] == "mlfft-pk-vec"
        solutions.append(out.read_bytes())
    assert solutions[0] == solutions[1]


def test_iteration_cap_is_no_convergence(problem):
    assert cli.main(["solve", str(problem), "--tol", "1e-14", "--max-iter", "1"]) == 3
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert not report["record"]["ok"]


@pytest.mark.parametrize("multi", ["vec", "seq"])
def test_no_convergence_record_carries_the_true_residual(problem, multi):
    argv = ["solve", str(problem), "--multi", multi, "--tol", "1e-14", "--max-iter", "1"]
    assert cli.main(argv) == 3
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert report["schema_version"] == 6 and list(report) == ["schema_version", "record"]
    record = report["record"]
    assert not record["ok"] and record["memory"]["krylov"] > 0
    assert len(record["groups"]) == 1  # the 4 columns are one block
    assert record["phases"]["precond_build"] > 0
    sys_ = load(problem)
    v = build_excitations(sys_, 0).matrix
    x = np.fromfile(problem.with_name("p.tbz.sol"), dtype="<c16").reshape(DIM, COLUMNS)
    want = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
    assert abs(record["residual"] - want) <= 1e-12 * want


GMRES_PHASES = {"precond_build", "matvec", "precond_apply", "krylov"}
FFT_KEYS = ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"})
# method -> (phases, memory keys, GMRES blocks of the 36-column solve: one of 32 and
# one of 4 columns, preconditioner builder); on the 6x6 grid, ne 8, pk stores
# 8^2 + nb^2 scalars and pz 48^2 + nb^2
RECORD_KEYS = {
    "dense": ({"dense_fill", "lu_factor", "lu_solve"}, {"dense"}, 0, None),
    "gmres-dense": ({"dense_fill"} | GMRES_PHASES, {"dense", "precond", "krylov"}, 2, build_pk),
    # the feed columns take the inverse's columns, a phase of their own
    "rybicki": ({"level1_fill", "recursion", "inverse_columns", "border"}, {"level1", "rhs", "stacks"}, 0,
                None),
    "mlfft-pk-vec": (*FFT_KEYS, 2, build_pk),
    "mlfft-pz-vec": (*FFT_KEYS, 2, build_pz),
}


@pytest.fixture(scope="module")
def grid6():
    sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=8))
    return sys_, build_excitations(sys_, 0).matrix


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_record_holds_only_what_the_method_ran(grid6, method):
    phases, memory, groups, build = RECORD_KEYS[method]
    x, rec, _ = cli.run_method(*grid6, method, tol=1e-3)
    assert set(rec.phases) == phases
    assert set(rec.memory) == {"generator", "dense_equivalent", "solution"} | memory
    assert rec.memory["solution"] == x.nbytes == grid6[0].dim * 36 * 16
    assert len(rec.groups) == groups
    # tol 1e-3 runs GMRES in complex64; the direct methods are complex128
    assert rec.precision == ("complex64" if groups else "complex128")
    if build is not None:
        # every GMRES method hands complex64 blocks to the preconditioner, which
        # forms complex64 copies of its inverses (half their bytes)
        want = build(grid6[0]).stored_bytes
        assert rec.memory["precond"] == want + want // 2
    # the phases cover the solve; the absolute floor keeps a fast solve from flaking
    assert abs(sum(rec.phases.values()) - rec.solve_s) <= max(0.05 * rec.solve_s, 1e-3)


def test_record_follows_the_solver_block_partition(grid6, monkeypatch):
    # the record reads its blocks from the solver's own reports, so blocks of 16
    # columns split the 36-column solve into 16 + 16 + 4 without another edit
    monkeypatch.setattr(gmres, "BLOCK_WIDTH", 16)
    sys_, v = grid6
    x, rec, _ = cli.run_method(sys_, v, "mlfft-pk-vec", tol=1e-3)
    # complex64 bases of 192 rows (16-column panels: 8 deep, grown by half once for
    # 8 steps) and 48 rows (4-column panels: 8 deep, grown once for 10 steps)
    assert [g.basis_bytes for g in rec.groups] == [n * sys_.dim * 8 for n in (192, 192, 48)]
    assert rec.memory["krylov"] == 192 * sys_.dim * 8
    dense = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
    assert abs(rec.residual - dense) <= 1e-8 * dense


def cycle_bases(run):
    """``run()``, and the ``nbytes`` of the Krylov basis array each GMRES cycle held on return."""
    bases = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is gmres._block_cycle.__code__:
            bases.append(frame.f_locals["rows"].nbytes)

    sys.setprofile(profile)
    try:
        return run(), bases
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("side, shift, tol, want", [(16, 1.0, 1e-3, 7_077_888), (8, 0.01, 1e-5, 4_423_680)],
                         ids=["16x16", "8x8-shift-0.01"])
def test_record_krylov_is_the_largest_basis_a_cycle_allocated(side, shift, tol, want):
    # the bases of the 32-column blocks, complex64, with their headroom for more steps
    sys_ = generate(ArrayProblemSpec(side, side, ne=8, diagonal_shift=shift))
    v = build_excitations(sys_, 0).matrix
    (_, rec, _), bases = cycle_bases(lambda: cli.run_method(sys_, v, "mlfft-pk-vec", tol))
    assert rec.memory["krylov"] == max(g.basis_bytes for g in rec.groups) == max(bases) == want
    if shift < 1.0:  # the weakly shifted blocks each run a second cycle
        assert len(bases) == 2 * len(rec.groups)


def test_gmres_alone_owns_the_block_partition():
    # run_method reads every block's norm and basis from its report
    assert "block_slices" not in inspect.getsource(cli)
    exported = [name for name in ("toepsolve.solvers", "toepsolve.solvers.gmres")
                if "block_slices" in importlib.import_module(name).__all__]
    assert exported == []


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_out_of_memory_is_one_line_and_invalid_input(tmp_path, monkeypatch, capsys, command):
    # the fill is never really asked for: a host that overcommits memory could grant it
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 51.5 GiB for an array with shape (599, 599, 8, 8) "
                          "and data type complex128")

    monkeypatch.setattr(cli, "generate", out_of_memory)
    output = ["-o", str(tmp_path / "f.tbz")] if command == "generate" else []
    assert cli.main([command, "--ny", "300", "--nx", "300", *output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Unable to allocate 51.5 GiB" in err


@pytest.mark.parametrize("side, border", [("3", []), ("6", []), ("3", ["--nb", "0"]), ("6", ["--nb", "0"])],
                         ids=["3", "6", "3-nb-0", "6-nb-0"])
def test_verify_checks_every_method_against_the_oracle(capsys, side, border):
    assert cli.main(["verify", "--ny", side, "--nx", side, *border]) == 0
    lines = capsys.readouterr().out.splitlines()
    methods = [m for m in cli.BENCH_METHODS if m != "dense"]
    assert [line.split()[0] for line in lines[1:-1]] == methods
    assert all(line.endswith(" ok") for line in lines[1:-1])
    assert lines[-1] == "verify: PASS"
    # every line names its worst column, and every GMRES line's is within tol
    for line in lines[1:-1]:
        worst = float(re.search(r", worst column \d+: ([^ ]+) ok$", line)[1])
        assert worst <= (1e-3 if line.split()[0] != "rybicki" else 1e-12)


def test_verify_passes_on_the_ill_conditioned_problem(capsys):
    # shift 0.01 leaves the default problem's conditioning far behind (cond2 3.3e3
    # at 16x16); tol 1e-5 still runs GMRES on the complex64 copies, and the
    # complex128 exit check and the dense oracle must both hold
    assert cli.main(["verify", "--ny", "6", "--nx", "6", "--shift", "0.01", "--tol", "1e-5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(" ok") for line in lines[1:-1])
    assert lines[-1] == "verify: PASS"


def test_verify_counts_no_convergence_as_a_failed_check(capsys):
    # one GMRES step cannot reach the tolerance: exit 1 (a failed check), not 3
    assert cli.main(["verify", "--ny", "2", "--nx", "2", "--ne", "2", "--max-iter", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:-1]:
        if line.split()[0] == "rybicki":
            assert line.endswith(" ok")
        else:
            assert " FAILED (NoConvergence: " in line
    assert len(lines) == len(cli.BENCH_METHODS) + 1
    assert lines[-1] == "verify: FAIL"


def test_verify_fails_a_record_residual_that_is_not_the_true_one(monkeypatch, capsys):
    run_method = cli.run_method

    def residual_off(*args, **kwargs):
        x, rec, groups = run_method(*args, **kwargs)
        rec.residual += 1e-6
        return x, rec, groups

    monkeypatch.setattr(cli, "run_method", residual_off)
    assert cli.main(["verify", "--ny", "3", "--nx", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(" FAIL") for line in lines[1:-1])


def test_verify_fails_a_block_method_column_above_tol(monkeypatch, capsys):
    run_method = cli.run_method

    def column_off(sys_, v, method, *args, **kwargs):
        x, rec, groups = run_method(sys_, v, method, *args, **kwargs)
        if method == "rybicki":  # whose deviation bound is 1e-10
            return x, rec, groups
        # column 0's residual grows by about 3e-3 of its right-hand side, and the
        # record residual is made the dense true residual of the changed x
        x[:, 0] *= 1.003
        rec.residual = float(np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v))
        return x, rec, groups

    monkeypatch.setattr(cli, "run_method", column_off)
    assert cli.main(["verify", "--ny", "3", "--nx", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()[1:-1]
    failed = {line.split()[0] for line in lines if line.endswith(" FAIL")}
    assert failed == {"gmres-dense", "mlfft-pk-vec", "mlfft-pz-vec"}
    assert all("worst column" in line for line in lines if line.split()[0] in failed)


GMRES_METHODS = ("gmres-dense", "mlfft-pk-vec", "mlfft-pz-vec")


@pytest.mark.parametrize("method", GMRES_METHODS)
def test_block_methods_bound_every_column_by_tol(grid6, method):
    sys_, v = grid6
    x, rec, _ = cli.run_method(sys_, v, method, tol=1e-3)
    per_col = np.linalg.norm(assemble_full(sys_) @ x - v, axis=0) / np.linalg.norm(v, axis=0)
    assert per_col.max() <= 1e-3
    assert all(g.converged for g in rec.groups)


def untimed(record: dict) -> dict:
    """A record dict without its timings: ``solve_s`` and the seconds of ``phases``."""
    return {**record, "solve_s": None, "phases": sorted(record["phases"])}


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_overwrite_rhs_permits_a_gmres_solve_over_v(grid6, method):
    sys_, v = grid6
    kept = v.copy()
    x, rec, _ = cli.run_method(sys_, v, method, tol=1e-3)
    assert v.tobytes() == kept.tobytes()  # the default leaves v untouched
    w = v.copy()
    x_over, rec_over, _ = cli.run_method(sys_, w, method, tol=1e-3, overwrite_rhs=True)
    assert x_over.tobytes() == x.tobytes()
    assert untimed(asdict(rec_over)) == untimed(asdict(rec))
    if method in GMRES_METHODS:
        assert x_over is w
    else:  # the direct methods read V after the solve, so they leave it alone
        assert not np.shares_memory(x_over, w) and w.tobytes() == kept.tobytes()


@pytest.mark.parametrize("method", GMRES_METHODS)
def test_overwrite_rhs_no_convergence_record_reads_v_before_the_solve(method):
    # three steps cannot reach 1e-13: the record's residual must still be taken
    # from V, not from the solution the solve wrote over it
    sys_ = generate(ArrayProblemSpec(ny=5, nx=7, ne=4))
    v = build_excitations(sys_, 0).matrix

    def failure(w, **kwargs):
        with pytest.raises(NoConvergence) as err:
            cli.run_method(sys_, w, method, tol=1e-13, max_iter=3, **kwargs)
        return err.value

    default = failure(v.copy())
    w = v.copy()
    over = failure(w, overwrite_rhs=True)
    assert np.shares_memory(over.solution, w)
    assert over.solution.tobytes() == default.solution.tobytes()
    assert over.record.residual == default.record.residual
    assert untimed(asdict(over.record)) == untimed(asdict(default.record))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["1-D", "zero columns", "all-zero", "nan", "inf"])
@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_run_method_input_contract(method, case):
    sys_ = generate(ArrayProblemSpec(ny=2, nx=2, ne=4))
    v = build_excitations(sys_, 0).matrix
    if case == "all-zero":
        # x = 0 solves V = 0 exactly, so the relative residual is 0, not 0/0
        x, rec, _ = cli.run_method(sys_, np.zeros_like(v), method, tol=1e-3)
        assert rec.residual == 0.0 and not x.any()
        return
    if case in ("nan", "inf"):
        # refused before any method runs, whose residual would read NaN
        v[5, 1] = float(case)
        with pytest.raises(ShapeError, match="inf or NaN"):
            cli.run_method(sys_, v, method, tol=1e-3)
        return
    bad = v[:, 0] if case == "1-D" else v[:, :0]
    with pytest.raises(ShapeError):
        cli.run_method(sys_, bad, method, tol=1e-3)


def test_run_method_rejects_an_unknown_method():
    sys_ = generate(ArrayProblemSpec(ny=2, nx=2, ne=4))
    with pytest.raises(InvalidSpec, match="unknown method 'mlfft-pc-vec'"):
        cli.run_method(sys_, build_excitations(sys_, 0).matrix, "mlfft-pc-vec", tol=1e-3)


@pytest.mark.parametrize("rhs", ["all", "3"])
@pytest.mark.parametrize("flags, method", [(["--method", "gmres-dense"], "gmres-dense"),
                                           (["--method", "mlfft"], "mlfft-pk-vec"),
                                           (["--method", "mlfft", "--precond", "pz"], "mlfft-pz-vec")])
def test_solve_over_the_excitations_writes_the_library_result(problem, flags, method, rhs):
    # ``solve`` writes a GMRES solution over its excitation block; the files must
    # be those of a solve into a block of its own, here a strided column for --rhs 3
    out = problem.with_name("x.sol")
    assert cli.main(["solve", str(problem), *flags, "--rhs", rhs, "-o", str(out)]) == 0
    report = json.loads(problem.with_name("x.sol.json").read_text())
    sys_ = load(problem)
    v = build_excitations(sys_, 0).matrix
    if rhs != "all":
        v = v[:, int(rhs) : int(rhs) + 1]
    kept = v.copy()
    x, rec, _ = cli.run_method(sys_, v, method, 1e-3, overwrite_rhs=False)
    assert v.tobytes() == kept.tobytes()
    assert out.read_bytes() == np.ascontiguousarray(x, dtype="<c16").tobytes()
    assert untimed(report["record"]) == untimed(json.loads(json.dumps(asdict(rec))))


@pytest.mark.parametrize("border", [["--nb", "0"], []], ids=["nb-0", "default-border"])
def test_generate_rejects_a_kernel_that_is_not_finite(tmp_path, capsys, border):
    # the square of the smoothing length underflows to 0, so r = 0 at coincident
    # points; a numpy warning would fail this test, as warnings are errors here
    path = tmp_path / "f.tbz"
    argv = ["generate", "--ny", "2", "--nx", "2", "--ne", "2", *border, "--reg", "1e-200", "-o", str(path)]
    assert cli.main(argv) == 2
    assert "error: kernel is not finite for ArrayProblemSpec(ny=2, nx=2, ne=2" in capsys.readouterr().err
    assert not path.exists()


def test_one_max_iter_default():
    default = inspect.signature(cli.run_method).parameters["max_iter"].default
    assert default == gmres.GmresConfig().max_iter == 2000
    for argv in (["solve", "p.tbz"], ["verify"]):
        assert cli._build_parser().parse_args(argv).max_iter == 2000


def test_solve_and_verify_share_the_solver_flag_defaults():
    want = {"tol": gmres.GmresConfig.tol, "max_iter": gmres.GmresConfig.max_iter, "feed": 0,
            "cap": DEFAULT_ORACLE_CAP}
    for argv in (["solve", "p.tbz"], ["verify"]):
        args = vars(cli._build_parser().parse_args(argv))
        assert {key: args[key] for key in want} == want


def test_verify_above_oracle_cap(problem):
    assert cli.main(["verify", str(problem), "--cap", "10"]) == 4


def test_missing_file_is_io_error(tmp_path):
    assert cli.main(["solve", str(tmp_path / "absent.tbz")]) == 5


def test_corrupted_file_is_io_error(problem):
    blob = bytearray(problem.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    problem.write_bytes(bytes(blob))
    assert cli.main(["solve", str(problem)]) == 5


def test_tbz1_file_is_io_error(problem, capsys):
    # the retired TBZ1 format: its magic and a version-1 header
    rewrite_header(problem, json_edit(lambda f: f.update(version=1)))
    problem.write_bytes(b"TBZ1\n" + problem.read_bytes()[5:])
    assert cli.main(["solve", str(problem)]) == 5
    err = capsys.readouterr().err
    assert err == "error: bad magic b'TBZ1\\n'\n"
    assert not problem.with_name("p.tbz.sol").exists()


@pytest.mark.parametrize("method", ["mlfft", "rybicki"])
@pytest.mark.parametrize("part", ["the generator", "Z_B", "Z_C"])
def test_payload_that_is_not_finite_is_io_error(tmp_path, capsys, part, method):
    # load refuses the file before a solver sees it; a numpy warning would
    # fail this test, as warnings are errors here
    path = tmp_path / "p.tbz"
    save(nonfinite_system(part), path)
    assert cli.main(["solve", str(path), "--method", method]) == 5
    assert capsys.readouterr().err == f"error: payload holds inf or NaN in {part}\n"
    assert not path.with_name("p.tbz.sol").exists()


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_bad_header_is_io_error(problem, case):
    rewrite_header(problem, BAD_HEADERS[case])
    assert cli.main(["solve", str(problem)]) == 5


# (owner, attribute, a method whose run calls it): the bindings perfbench's trace wraps,
# so a refactor that stops calling one is caught here instead of reading 0 in the trace
TRACED = [
    (cli, "build_pk", "mlfft-pk-vec"),
    (cli, "bordered_matvec", "mlfft-pk-vec"),
    (cli, "solve_multi_rhs_vectorized", "mlfft-pk-vec"),
    (cli, "schur_solve", "rybicki"),
    (schur, "rybicki_solve", "rybicki"),
    (schur, "assemble_level1", "rybicki"),
    (bordered, "matvec", "mlfft-pk-vec"),
    (Preconditioner, "apply", "mlfft-pk-vec"),
]


@pytest.mark.parametrize("owner, attr, method", TRACED,
                         ids=[f"{o.__name__.rsplit('.', 1)[-1]}.{a}" for o, a, _ in TRACED])
def test_run_method_calls_the_traced_bindings(monkeypatch, owner, attr, method):
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=2))
    cli.run_method(sys_, build_excitations(sys_, 0).matrix, method, tol=1e-3)
    assert calls

"""Exit codes of the ``toepsolve`` command line on a 2x2 problem."""

import json

import numpy as np
import pytest

from helpers import BAD_HEADERS, rewrite_header, wrap_generator
from toepsolve import cli
from toepsolve.problems import (
    ArrayProblemSpec,
    BorderedSystem,
    assemble_full,
    build_excitations,
    generate,
    load,
    save,
)
from toepsolve.solvers import Preconditioner, bordered, build_pk, build_pz

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
    for bad in ("1.5", "x"):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", str(problem), "--rhs", bad])
        assert err.value.code == 2
        want = f'argument --rhs: expected "all" or a non-negative column index, got {bad!r}'
        assert want in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--method", "rybicki"], ["--multi", "seq"]])
def test_rhs_writes_that_column_of_the_all_column_solve(problem, flags):
    def solve(*extra):
        out = problem.with_name("x.sol")
        assert cli.main(["solve", str(problem), *flags, *extra, "-o", str(out)]) == 0
        return np.fromfile(out, dtype="<c16").reshape(DIM, -1)

    every = solve()
    assert every.shape == (DIM, COLUMNS)
    one = solve("--rhs", "1")
    assert one.shape == (DIM, 1)
    assert np.linalg.norm(one[:, 0] - every[:, 1]) <= 1e-12 * np.linalg.norm(every[:, 1])


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


def test_precond_none_is_not_a_solve_choice(problem):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(problem), "--precond", "none"])
    assert err.value.code == 2


@pytest.mark.parametrize("method", ["dense", "gmres-dense", "rybicki"])
@pytest.mark.parametrize("flag", [["--precond", "pz"], ["--multi", "seq"]])
def test_fft_flags_rejected_for_other_methods(problem, method, flag):
    assert cli.main(["solve", str(problem), "--method", method, *flag]) == 2
    assert not problem.with_name("p.tbz.sol").exists()


@pytest.mark.parametrize("flag, tag", [([], "mlfft-pk-vec"), (["--precond", "pz"], "mlfft-pz-vec"),
                                       (["--multi", "seq"], "mlfft-pk-seq"),
                                       (["--precond", "pz", "--multi", "seq"], "mlfft-pz-seq")])
def test_fft_flags_select_the_mlfft_variant(problem, flag, tag):
    assert cli.main(["solve", str(problem), *flag]) == 0
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert report["record"]["method"] == tag


def test_iteration_cap_is_no_convergence(problem):
    assert cli.main(["solve", str(problem), "--tol", "1e-14", "--max-iter", "1"]) == 3
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert not report["record"]["ok"]


@pytest.mark.parametrize("multi", ["vec", "seq"])
def test_no_convergence_record_carries_the_true_residual(problem, multi):
    argv = ["solve", str(problem), "--multi", multi, "--tol", "1e-14", "--max-iter", "1"]
    assert cli.main(argv) == 3
    report = json.loads(problem.with_name("p.tbz.sol.json").read_text())
    assert report["schema_version"] == 3 and list(report) == ["schema_version", "record"]
    record = report["record"]
    assert not record["ok"] and record["memory"]["krylov"] > 0
    assert len(record["groups"]) == (COLUMNS if multi == "seq" else 1)
    assert record["phases"]["precond_build"] > 0
    sys_ = load(problem)
    v = build_excitations(sys_, 0).matrix
    x = np.fromfile(problem.with_name("p.tbz.sol"), dtype="<c16").reshape(DIM, COLUMNS)
    want = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
    assert abs(record["residual"] - want) <= 1e-12 * want


GMRES_PHASES = {"precond_build", "matvec", "precond_apply", "krylov"}
FFT_KEYS = ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"})
# method -> (phases, memory keys, Krylov groups of the 36-column solve, preconditioner
# builder); on the 6x6 grid, ne 8, pk stores 8^2 + nb^2 scalars and pz 48^2 + nb^2
RECORD_KEYS = {
    "dense": ({"dense_fill", "lu_factor", "lu_solve"}, {"dense"}, 0, None),
    "gmres-dense": ({"dense_fill"} | GMRES_PHASES, {"dense", "precond", "krylov"}, 1, build_pk),
    "rybicki": ({"level1_fill", "recursion", "border"}, {"level1", "level1_wide"}, 0, None),
    "mlfft-pk-vec": (*FFT_KEYS, 1, build_pk),
    "mlfft-pz-vec": (*FFT_KEYS, 1, build_pz),
    "mlfft-pk-seq": (*FFT_KEYS, 36, build_pk),
    "mlfft-pz-seq": (*FFT_KEYS, 36, build_pz),
}


@pytest.fixture(scope="module")
def grid6():
    sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=8))
    return sys_, build_excitations(sys_, 0).matrix


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_record_holds_only_what_the_method_ran(grid6, method):
    phases, memory, groups, build = RECORD_KEYS[method]
    _, rec, _ = cli.run_method(*grid6, method, tol=1e-3)
    assert set(rec.phases) == phases
    assert set(rec.memory) == {"generator", "dense_equivalent"} | memory
    assert len(rec.groups) == groups
    if build is not None:
        assert rec.memory["precond"] == build(grid6[0]).stored_bytes
    # the phases cover the solve; the absolute floor keeps a fast solve from flaking
    assert abs(sum(rec.phases.values()) - rec.solve_s) <= max(0.05 * rec.solve_s, 1e-3)


@pytest.mark.parametrize("side", ["3", "6"])
def test_verify_checks_every_method_against_the_oracle(capsys, side):
    assert cli.main(["verify", "--ny", side, "--nx", side]) == 0
    lines = capsys.readouterr().out.splitlines()
    methods = [m for m in cli.BENCH_METHODS if m != "dense"]
    assert [line.split()[0] for line in lines[1:-1]] == methods
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


def test_verify_above_oracle_cap(problem):
    assert cli.main(["verify", str(problem), "--cap", "10"]) == 4


def test_missing_file_is_io_error(tmp_path):
    assert cli.main(["solve", str(tmp_path / "absent.tbz")]) == 5


def test_corrupted_file_is_io_error(problem):
    blob = bytearray(problem.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    problem.write_bytes(bytes(blob))
    assert cli.main(["solve", str(problem)]) == 5


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
    (cli, "solve_multi_rhs_sequential", "mlfft-pk-seq"),
    (cli, "schur_solve", "rybicki"),
    (bordered, "matvec", "mlfft-pk-seq"),
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

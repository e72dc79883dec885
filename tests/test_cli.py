"""Exit codes of the ``toepsolve`` command line on a 2x2 problem."""

import json

import numpy as np
import pytest

from helpers import BAD_HEADERS, rewrite_header
from toepsolve import cli
from toepsolve.problems import ArrayProblemSpec, assemble_full, build_excitations, generate, load

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


def test_rhs_out_of_range_is_invalid_input(problem):
    assert cli.main(["solve", str(problem), "--rhs", "99"]) == 2


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
# method -> (phases, memory keys, Krylov groups of the 36-column solve)
RECORD_KEYS = {
    "dense": ({"dense_fill", "lu_factor", "lu_solve"}, {"dense"}, 0),
    "gmres-dense": ({"dense_fill"} | GMRES_PHASES, {"dense", "precond", "krylov"}, 1),
    "rybicki": ({"level1_fill", "recursion", "border"}, {"level1", "level1_wide"}, 0),
    "mlfft-pk-vec": ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"}, 1),
    "mlfft-pz-vec": ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"}, 1),
    "mlfft-pk-seq": ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"}, 36),
    "mlfft-pz-seq": ({"spectral_precompute"} | GMRES_PHASES, {"spectral", "precond", "krylov"}, 36),
}


@pytest.fixture(scope="module")
def grid6():
    sys_ = generate(ArrayProblemSpec(ny=6, nx=6, ne=8))
    return sys_, build_excitations(sys_, 0).matrix


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_record_holds_only_what_the_method_ran(grid6, method):
    phases, memory, groups = RECORD_KEYS[method]
    _, rec, _ = cli.run_method(*grid6, method, tol=1e-3)
    assert set(rec.phases) == phases
    assert set(rec.memory) == {"generator", "dense_equivalent"} | memory
    assert len(rec.groups) == groups
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

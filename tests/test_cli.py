"""Exit codes of the ``toepsolve`` command line on a 2x2 problem."""

import json

import numpy as np
import pytest

from helpers import BAD_HEADERS, rewrite_header
from toepsolve import cli
from toepsolve.problems import assemble_full, build_excitations, load

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
    assert report["record"]["ok"] and report["rhs_columns"] == COLUMNS


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
    record = json.loads(problem.with_name("p.tbz.sol.json").read_text())["record"]
    assert not record["ok"] and record["mem_krylov"] > 0
    sys_ = load(problem)
    v = build_excitations(sys_, 0).matrix
    x = np.fromfile(problem.with_name("p.tbz.sol"), dtype="<c16").reshape(DIM, COLUMNS)
    want = np.linalg.norm(assemble_full(sys_) @ x - v) / np.linalg.norm(v)
    assert abs(record["residual"] - want) <= 1e-12 * want


def test_verify_checks_every_method_against_the_oracle(capsys):
    assert cli.main(["verify", "--ny", "3", "--nx", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    methods = [m for m in cli.BENCH_METHODS if m != "dense"]
    assert [line.split()[0] for line in lines[1:-1]] == methods
    assert all(line.endswith(" ok") for line in lines[1:-1])
    assert lines[-1] == "verify: PASS"


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

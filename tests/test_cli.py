"""Exit codes of the ``toepsolve`` command line on a 2x2 problem."""

import json

import pytest

from helpers import BAD_HEADERS, rewrite_header
from toepsolve import cli

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

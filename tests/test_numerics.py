"""LU factorization and solve contracts."""

import numpy as np
import pytest
import scipy.linalg

from helpers import random_complex, rel_err
from toepsolve.errors import DimensionMismatch, ShapeError, SingularMatrix
from toepsolve.numerics import (
    as_columns,
    astype,
    condition_estimate,
    copied_bytes,
    inverse,
    lu_factor,
    lu_solve,
)
from toepsolve.problems import ArrayProblemSpec, generate
from toepsolve.solvers import BorderedOperator


def test_lu_identity_trivial():
    f = lu_factor(np.eye(3))
    assert np.array_equal(f.lu, np.eye(3))
    assert np.array_equal(f.piv, np.arange(3))
    b = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(lu_solve(f, b), b.astype(complex))


def test_lu_permutation_swaps_rows():
    f = lu_factor([[0, 1], [1, 0]])
    a, b = 2.0 + 1j, -3.0
    x = lu_solve(f, np.array([a, b])[:, None])[:, 0]
    assert np.allclose(x, [b, a], rtol=0, atol=0)


def test_lu_roundtrip_random_8x8():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 8, 8) + 4 * np.eye(8)
    x = random_complex(rng, 8, 3)
    got = lu_solve(lu_factor(a), a @ x)
    assert rel_err(got, x) <= 1e-12


def test_lu_solve_scaling():
    f = lu_factor(2 * np.eye(4))
    b = (np.arange(4.0) + 1j)[:, None]
    assert np.allclose(lu_solve(f, b), b / 2, rtol=1e-15)


def test_lu_solve_identity_reconstruction():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 6, 6) + 3 * np.eye(6)
    assert rel_err(lu_solve(lu_factor(a), a), np.eye(6)) <= 1e-12


def test_lu_reconstruct_pa_equals_lu():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        a = random_complex(rng, n, n)
        f = lu_factor(a)
        lower = np.tril(f.lu, -1) + np.eye(n)
        upper = np.triu(f.lu)
        rec = lower @ upper
        for i in range(n - 1, -1, -1):  # undo the recorded row swaps
            rec[[i, f.piv[i]]] = rec[[f.piv[i], i]]
        assert rel_err(rec, a) <= 1e-13


def test_lu_roundtrip_well_conditioned_sweep():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 24))
        a = random_complex(rng, n, n) + 2 * np.sqrt(n) * np.eye(n)
        if np.linalg.cond(a) >= 1e6:
            continue
        b = random_complex(rng, n, 2)
        assert rel_err(a @ lu_solve(lu_factor(a), b), b) <= 1e-12
        checked += 1
    assert checked >= 30


def test_lu_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((3, 3)))
    with pytest.raises(SingularMatrix):
        lu_factor([[1, 2], [2, 4]])


def test_lu_shape_contracts():
    with pytest.raises(ShapeError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="ndim=1"):
        lu_factor(np.ones(3))
    for scalar in (5.0, np.array(5.0)):
        with pytest.raises(ShapeError, match="ndim=0"):
            lu_factor(scalar)
    with pytest.raises(ShapeError):
        lu_factor(np.array([[np.nan, 0], [0, 1]]))
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones((4, 1)))


def test_condition_estimate_bounds_the_exact_1_norm_condition_number():
    # zgecon's estimate is a lower bound, and on a small random matrix it is close
    rng = np.random.default_rng(6)
    a = random_complex(rng, 20, 20) + np.diag(np.geomspace(1.0, 1e4, 20))
    exact = np.linalg.cond(a, 1)
    assert exact / 10 <= condition_estimate(a, lu_factor(a)) <= exact * (1 + 1e-10)
    assert condition_estimate(np.zeros((0, 0)), lu_factor(np.zeros((0, 0)))) == 1.0


def test_lu_of_a_0x0_block_calls_no_scipy(monkeypatch):
    # the self block of an empty border: the wrappers, not scipy, own the empty case
    def refuse(*args, **kwargs):
        raise AssertionError("scipy called on a 0x0 block")

    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
    f = lu_factor(np.zeros((0, 0)))
    assert f.side == 0 and f.lu.dtype == np.complex128
    for dtype in (np.complex64, np.complex128):
        x = lu_solve(f, np.zeros((0, 3), dtype=dtype))
        assert x.shape == (0, 3) and x.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones((1, 3)))


def test_as_columns_keeps_complex64_and_widens_everything_else():
    c64 = np.ones((3, 2), dtype=np.complex64)
    assert as_columns(c64, 3) is c64
    c128 = np.ones((3, 2), dtype=np.complex128)
    assert as_columns(c128, 3) is c128
    for other in (np.ones((3, 2), dtype=np.float32), np.ones((3, 2)), np.ones((3, 2), dtype=int),
                  [[1j, 2], [3, 4], [5, 6]]):
        got = as_columns(other, 3)
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.asarray(other))


def test_astype_casts_every_array_field_and_shares_the_rest():
    op = BorderedOperator.from_system(generate(ArrayProblemSpec(ny=2, nx=3, ne=2)))
    single = astype(op, np.complex64)
    assert type(single) is BorderedOperator
    for got, was in ((single.spectral.diag_blocks, op.spectral.diag_blocks), (single.zb, op.zb),
                     (single.zc, op.zc)):
        assert got.dtype == np.complex64 and np.array_equal(got, was.astype(np.complex64))
    assert (single.spectral.n2, single.spectral.n1, single.spectral.n0) == (2, 3, 2)
    # an array already of the dtype is shared, not copied
    same = astype(op, np.complex128)
    assert same.zb is op.zb and same.spectral.diag_blocks is op.spectral.diag_blocks
    # and only the arrays it cast count as copied, nested ones too
    assert copied_bytes(op, same) == 0
    assert copied_bytes(op, single) == (op.spectral.diag_blocks.nbytes + op.zb.nbytes + op.zc.nbytes) // 2


def test_inverse_by_lu_against_the_identity():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 8, 8) + 4.0 * np.eye(8)
    got = inverse(a)
    assert got.dtype == np.complex128 and got.flags.c_contiguous
    assert rel_err(got @ a, np.eye(8)) <= 1e-12 and rel_err(a @ got, np.eye(8)) <= 1e-12
    with pytest.raises(SingularMatrix):
        inverse([[1, 2], [2, 4]])
    empty = inverse(np.zeros((0, 0)))
    assert empty.shape == (0, 0) and empty.dtype == np.complex128

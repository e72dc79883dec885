"""LU factorization and solve contracts."""

import numpy as np
import pytest

from helpers import random_complex, rel_err
from toepsolve.errors import DimensionMismatch, ShapeError, SingularMatrix
from toepsolve.numerics import lu_factor, lu_solve


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
    with pytest.raises(ShapeError):
        lu_factor(np.array([[np.nan, 0], [0, 1]]))
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones((4, 1)))

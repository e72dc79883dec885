"""Bordered matvec, its adjoint operator and the spectrum estimator.

The system is random and neither complex symmetric nor Hermitian, so an
adjoint that silently acts as the forward operator or as its transpose
fails these checks.
"""

import numpy as np
import pytest
import scipy.linalg

from helpers import random_complex, random_generator, rel_err
from toepsolve.problems import ArrayProblemSpec, BorderedSystem, assemble_full
from toepsolve.solvers import (
    BorderedOperator,
    bordered_matvec,
    build_pk,
    spectrum_estimate,
)


@pytest.fixture(scope="module")
def system():
    rng = np.random.default_rng(30)
    ny, nx, ne, nb = 2, 3, 2, 5
    gen = random_generator(rng, ny, nx, ne, diag_boost=4.0)
    zb = random_complex(rng, nb, gen.dim)
    zc = random_complex(rng, nb, nb) + 4.0 * np.eye(nb)
    sys_ = BorderedSystem(gen, zb, zc, ArrayProblemSpec(ny=ny, nx=nx, ne=ne, nb=nb))
    full = assemble_full(sys_)
    assert rel_err(full.T, full) > 0.1 and rel_err(full.conj().T, full) > 0.1
    return sys_, BorderedOperator.from_system(sys_), full


def test_forward_matches_dense(system):
    _, op, full = system
    x = random_complex(np.random.default_rng(31), op.dim, 3)
    assert rel_err(bordered_matvec(op, x), full @ x) <= 1e-12


def test_transpose_matches_dense(system):
    # The transpose is the conjugated adjoint: A^T x = conj(A^H conj(x)).
    _, op, full = system
    x = random_complex(np.random.default_rng(32), op.dim, 3)
    got = bordered_matvec(op.adjoint(), x.conj()).conj()
    assert rel_err(got, full.T @ x) <= 1e-12


def test_adjoint_matches_dense(system):
    _, op, full = system
    x = random_complex(np.random.default_rng(33), op.dim, 3)
    assert rel_err(bordered_matvec(op.adjoint(), x), full.conj().T @ x) <= 1e-12


@pytest.mark.parametrize("precond", ["none", "pk"])
def test_spectrum_exact_when_sketch_spans_everything(system, precond):
    sys_, op, full = system
    if precond == "none":
        p, dense = None, full
    else:
        p = build_pk(sys_)
        blocks = [sys_.gen.block(0, 0)] * (sys_.array_dim // sys_.spec.ne) + [sys_.zc]
        dense = np.linalg.solve(scipy.linalg.block_diag(*blocks), full)
    # count = dim: the sketch spans everything and every value is exact
    got = spectrum_estimate(op, p, count=op.dim, seed=1)
    want = np.linalg.svd(dense, compute_uv=False)
    assert got.shape == want.shape == (17,)
    assert np.abs(got - want).max() <= 1e-10 * want[0]

"""Bordered matvec against the dense assembly.

The system is random and neither complex symmetric nor Hermitian, so a
matvec that silently applies the transpose or the conjugate transpose of
the system fails this check.
"""

import numpy as np
import pytest

from helpers import random_complex, random_generator, rel_err
from toepsolve.problems import ArrayProblemSpec, BorderedSystem, assemble_full
from toepsolve.solvers import BorderedOperator, bordered_matvec


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


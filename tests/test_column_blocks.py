"""Every numeric entry point takes a 2-D column block and nothing else."""

import numpy as np
import pytest

from helpers import random_complex
from toepsolve.errors import ShapeError
from toepsolve.numerics import lu_factor, lu_solve
from toepsolve.problems import ArrayProblemSpec, generate
from toepsolve.solvers import (
    BorderedOperator,
    GmresConfig,
    assemble_level1,
    bordered_matvec,
    build_pk,
    rybicki_solve,
    schur_solve,
    solve_multi_rhs_vectorized,
)
from toepsolve.toeplitz import block_fft_2l, extract_result, matvec, pad_rhs

SYS = generate(ArrayProblemSpec(ny=2, nx=3, ne=2, nb=3, seed=5))
OP = BorderedOperator.from_system(SYS)
PK = build_pk(SYS)
N2, N1, N0 = SYS.gen.n2, SYS.gen.n1, SYS.gen.n0
# rows of the circulant grid, L = 2n-1 per level, as the inverse transform and
# extract_result expect them
CIRCULANT_ROWS = (2 * N2 - 1) * (2 * N1 - 1) * N0

# name -> (rows of the input, call on that input)
ENTRY_POINTS = {
    "block_fft_2l": (SYS.array_dim, lambda u: block_fft_2l(u, N2, N1, N0)),
    "block_fft_2l-inverse": (CIRCULANT_ROWS, lambda u: block_fft_2l(u, N2, N1, N0, "inverse")),
    "pad_rhs": (SYS.array_dim, lambda u: pad_rhs(u, N2, N1, N0)),
    "extract_result": (CIRCULANT_ROWS, lambda u: extract_result(u, N2, N1, N0)),
    "matvec": (SYS.array_dim, lambda u: matvec(OP.spectral, u)),
    "bordered_matvec": (SYS.dim, lambda u: bordered_matvec(OP, u)),
    "Preconditioner.apply": (SYS.dim, PK.apply),
    "lu_solve": (SYS.zc.shape[0], lambda u: lu_solve(lu_factor(SYS.zc), u)),
    "rybicki_solve": (SYS.array_dim, lambda u: rybicki_solve(assemble_level1(SYS.gen), u)[0]),
    "schur_solve": (SYS.dim, lambda u: schur_solve(SYS, u)[0]),
    "solve_multi_rhs_vectorized": (SYS.dim, lambda u: solve_multi_rhs_vectorized(
        lambda x: bordered_matvec(OP, x), PK.apply, u, GmresConfig())[0]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_dimensional_input_is_a_shape_error(name):
    rows, call = ENTRY_POINTS[name]
    u = random_complex(np.random.default_rng(0), rows)
    assert call(u[:, None]).ndim == 2
    with pytest.raises(ShapeError, match="ndim=1"):
        call(u)

"""Bordered and Schur-complement matvecs against the dense assembly.

The system is random and neither complex symmetric nor Hermitian, so a
matvec that silently applies the transpose or the conjugate transpose of
the system fails this check.
"""

import numpy as np
import pytest

from helpers import dense_schur, random_complex, random_generator, rel_err
from toepsolve import numerics
from toepsolve.errors import ShapeError
from toepsolve.problems import ArrayProblemSpec, BorderedSystem, assemble_full, generate
from toepsolve.solvers import (
    BorderedOperator,
    SchurComplement,
    bordered_matvec,
    build_pk,
    schur_matvec,
)
from toepsolve.toeplitz import BlockGenerator2L, matvec, precompute_spectral


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



def test_complex64_input_runs_in_complex64(system):
    _, op, full = system
    x = random_complex(np.random.default_rng(32), op.dim, 3)
    got = bordered_matvec(numerics.astype(op, np.complex64), x.astype(np.complex64))
    assert got.dtype == np.complex64
    assert rel_err(got, full @ x) <= 1e-6


def test_complex64_input_on_a_complex128_operator_is_computed_in_complex128(system):
    # computed and returned as the complex128 copy of the block would be: no rounding
    _, op, _ = system
    x = random_complex(np.random.default_rng(34), op.dim, 3).astype(np.complex64)
    got = bordered_matvec(op, x)
    assert got.dtype == np.complex128
    assert np.array_equal(got, bordered_matvec(op, x.astype(np.complex128)))


def schur_of(sys_, dense=False):
    """S_A of ``sys_`` by ``from_system``, with Z_A spectral or dense."""
    a = sys_.array_dim
    return SchurComplement.from_system(sys_, assemble_full(sys_)[:a, :a] if dense else None)


@pytest.mark.parametrize("nb", [8, 0], ids=["border", "nb-0"])
def test_border_inverse_is_that_of_z_c(nb):
    # S_A alone forms Z_C^-1, which the elimination applies; P_A leaves the border alone
    sys_ = generate(ArrayProblemSpec(ny=3, nx=3, ne=4, nb=nb, seed=7))
    s = SchurComplement.from_system(sys_)
    assert s.zc_inverse.shape == (nb, nb)
    assert s.zc_inverse.dtype == np.complex128 and s.zc_inverse.flags.c_contiguous
    assert rel_err(s.zc_inverse @ sys_.zc, np.eye(nb)) <= 1e-12


@pytest.mark.parametrize("dense", [False, True], ids=["spectral", "dense"])
def test_schur_matvec_matches_dense(system, dense):
    # the random Z_B makes Z_B^T and Z_B^H differ, so a conjugated border fails here
    sys_, _, _ = system
    u = random_complex(np.random.default_rng(35), sys_.array_dim, 3)
    assert rel_err(schur_matvec(schur_of(sys_, dense), u), dense_schur(sys_) @ u) <= 1e-12


def test_schur_matvec_complex64_copy_runs_in_complex64(system):
    sys_, _, _ = system
    u = random_complex(np.random.default_rng(36), sys_.array_dim, 3)
    got = schur_matvec(numerics.astype(schur_of(sys_), np.complex64), u.astype(np.complex64))
    assert got.dtype == np.complex64
    assert rel_err(got, dense_schur(sys_) @ u) <= 1e-6


def test_schur_complement_of_an_empty_border_is_z_a(system):
    sys_, op, _ = system
    u = random_complex(np.random.default_rng(37), sys_.array_dim, 2)
    s = SchurComplement(op.spectral, np.zeros((0, sys_.array_dim), dtype=complex), np.zeros((0, 0)))
    assert np.array_equal(schur_matvec(s, u), matvec(s.za, u))
    with pytest.raises(ShapeError, match="inconsistent"):
        SchurComplement(s.za, np.zeros((1, sys_.array_dim), dtype=complex), np.zeros((0, 0)))


@pytest.mark.parametrize("zb_cols, zc_cols, message", [(-1, 0, "inconsistent"), (0, 1, "must be square")],
                         ids=["zb-width", "zc-not-square"])
def test_border_shapes_are_checked(system, zb_cols, zc_cols, message):
    _, op, _ = system
    zb = np.zeros((op.nb, op.array_dim + zb_cols), dtype=complex)
    zc = np.zeros((op.nb, op.nb + zc_cols), dtype=complex)
    with pytest.raises(ShapeError, match=message):
        BorderedOperator(op.spectral, zb, zc)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_empty_border_is_the_array_matvec(system, dtype):
    sys_, _, _ = system
    s = sys_.spec
    empty = BorderedSystem(sys_.gen, np.zeros((0, sys_.array_dim), dtype=complex),
                           np.zeros((0, 0), dtype=complex), ArrayProblemSpec(ny=s.ny, nx=s.nx, ne=s.ne, nb=0))
    op = numerics.astype(BorderedOperator.from_system(empty), dtype)
    x = random_complex(np.random.default_rng(33), op.dim, 3).astype(dtype)
    got = bordered_matvec(op, x)
    assert got.dtype == dtype
    assert np.array_equal(got, matvec(op.spectral, x))


# each holds arrays, so it compares and hashes by identity, as BorderedSystem does:
# a field-wise == would ask numpy for the truth value of an array
ARRAY_DATACLASSES = {
    "BlockGenerator2L": lambda s: BlockGenerator2L(s.gen.n2, s.gen.n1, s.gen.n0, s.gen.blocks.copy()),
    "SpectralOperator": lambda s: precompute_spectral(s.gen),
    "BorderedOperator": BorderedOperator.from_system,
    "SchurComplement": schur_of,
    "Preconditioner": build_pk,
}


@pytest.mark.parametrize("build", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES)
def test_array_dataclasses_compare_and_hash_by_identity(build):
    sys_ = generate(ArrayProblemSpec(ny=2, nx=2, ne=2))
    a, b = build(sys_), build(sys_)
    assert a == a and a != b
    assert len({a, b, a}) == 2

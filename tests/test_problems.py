"""Synthetic problem generation, excitations and TBZ serialization."""

import hashlib
import math
import struct

import numpy as np
import pytest

from helpers import BAD_HEADERS, json_edit, rewrite_header, write_tbz1
from toepsolve import problems
from toepsolve.errors import (
    ChecksumMismatch,
    FormatError,
    FormatVersionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    TooLargeForOracle,
)
from toepsolve.problems import (
    ArrayProblemSpec,
    assemble_full,
    build_excitations,
    fnv1a64,
    generate,
    load,
    save,
)
from toepsolve.solvers import GmresConfig, solve_multi_rhs_vectorized
from toepsolve.toeplitz import assemble_dense


def small_system(**overrides):
    params = dict(ny=3, nx=3, ne=4, nb=8, seed=7)
    params.update(overrides)
    return generate(ArrayProblemSpec(**params))


class TestSpec:
    def test_defaults_resolved(self):
        spec = ArrayProblemSpec(ny=2, nx=5, ne=3)
        assert spec.nb == 8 * (5 + 2)
        assert spec.regularization == pytest.approx(spec.pitch / 10)
        assert spec.dim == 2 * 5 * 3 + spec.nb

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=0)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=0, nx=1, ne=1)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=1, nb=-1)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=1, pitch=0.0)
        for real in ("wavenumber", "pitch", "regularization", "diagonal_shift"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(InvalidSpec, match="finite"):
                    ArrayProblemSpec(ny=1, nx=1, ne=1, **{real: value})


class TestGenerate:
    def test_generator_transpose_symmetry_exact(self):
        sys_ = small_system()
        for o2 in range(-2, 3):
            for o1 in range(-2, 3):
                assert np.array_equal(sys_.gen.block(-o2, -o1), sys_.gen.block(o2, o1).T)

    def test_closed_form_single_cell(self):
        sys_ = generate(
            ArrayProblemSpec(
                ny=1, nx=1, ne=1, nb=0, wavenumber=0.0, regularization=1.0,
                diagonal_shift=0.25, seed=3,
            )
        )
        # r = sqrt(0 + 1) = 1, so the only entry is 1/(4*pi) + shift
        want = 1.0 / (4.0 * np.pi) + 0.25
        assert sys_.gen.block(0, 0)[0, 0] == pytest.approx(want, rel=1e-15)

    def test_deterministic_in_seed(self):
        a, b = small_system(), small_system()
        assert np.array_equal(a.gen.stacked4(), b.gen.stacked4())
        assert np.array_equal(a.zb, b.zb)
        assert np.array_equal(a.zc, b.zc)
        c = small_system(seed=8)
        assert not np.array_equal(a.gen.stacked4(), c.gen.stacked4())

    def test_toeplitz_block_pairs_bitwise(self):
        for ne in (1, 4):
            sys_ = small_system(ne=ne)
            dense = assemble_dense(sys_.gen)
            n0 = ne
            for i2 in range(3):
                for j2 in range(3):
                    for i1 in range(3):
                        for j1 in range(3):
                            i, j = i2 * 3 + i1, j2 * 3 + j1
                            blk = dense[i * n0 : (i + 1) * n0, j * n0 : (j + 1) * n0]
                            assert np.array_equal(blk, sys_.gen.block(i2 - j2, i1 - j1))

    def test_conditioning_guard_without_preconditioner(self):
        sys_ = generate(ArrayProblemSpec(ny=4, nx=4, ne=4, seed=5))
        full = assemble_full(sys_)
        b = build_excitations(sys_, 0).matrix[:, :1]
        cfg = GmresConfig(tol=1e-6, max_iter=sys_.dim)
        _, (report,) = solve_multi_rhs_vectorized(lambda v: full @ v, None, b, cfg)
        assert report.converged and report.iterations <= sys_.dim // 2


class TestAssembleFull:
    def test_no_border_equals_array_part(self):
        sys_ = small_system(nb=0)
        assert np.array_equal(assemble_full(sys_), assemble_dense(sys_.gen))

    def test_element_block_shift_invariance(self):
        sys_ = small_system()
        full = assemble_full(sys_)
        ne, nx = 4, 3

        def eblock(i, j):
            return full[i * ne : (i + 1) * ne, j * ne : (j + 1) * ne]

        # elements (2,1) and (5,4): both at 2-D offset (0,+1), one grid row apart
        assert np.array_equal(eblock(2, 1), eblock(5, 4))
        assert np.array_equal(eblock(3, 0), eblock(3 + nx, 0 + nx))

    def test_complex_symmetric(self):
        sys_ = small_system(ny=2, nx=2)
        full = assemble_full(sys_)
        assert np.array_equal(full, full.T)

    def test_oracle_cap(self):
        sys_ = small_system()
        with pytest.raises(TooLargeForOracle):
            assemble_full(sys_, cap=10)


class TestExcitations:
    def test_single_element_column(self):
        sys_ = small_system(ny=1, nx=1, ne=3, nb=4)
        exc = build_excitations(sys_, feed_index=1)
        assert exc.matrix.shape == (7, 1)
        assert np.array_equal(exc.matrix[:, 0], [0, 1, 0, 0, 0, 0, 0])

    def test_column_sums_and_stride(self):
        sys_ = small_system()
        exc = build_excitations(sys_, feed_index=2)
        assert np.array_equal(exc.matrix.sum(axis=0), np.ones(9))
        rows = np.nonzero(exc.matrix)[0]
        assert np.array_equal(np.diff(rows), np.full(8, 4))  # stride ne
        assert not exc.matrix[sys_.array_dim :].any()

    def test_feed_out_of_range(self):
        sys_ = small_system()
        with pytest.raises(IndexOutOfRange):
            build_excitations(sys_, feed_index=4)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path, monkeypatch):
        def refuse(data):
            raise AssertionError("the TBZ2 path ran the TBZ1 checksum")

        monkeypatch.setattr(problems, "fnv1a64", refuse)
        sys_ = small_system()
        path = tmp_path / "p.tbz"
        save(sys_, path)
        back = load(path)
        assert np.array_equal(back.gen.stacked4(), sys_.gen.stacked4())
        assert np.array_equal(back.zb, sys_.zb)
        assert np.array_equal(back.zc, sys_.zc)
        assert back.spec == sys_.spec
        for arr in [col.column for col in back.gen.columns] + [back.zb, back.zc]:
            assert arr.flags.writeable and arr.flags.c_contiguous

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.tbz", tmp_path / "b.tbz"
        save(small_system(), p1)
        save(small_system(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ChecksumMismatch):
            load(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        blob = path.read_bytes()
        patched = blob.replace(b'"version": 2', b'"version": 9', 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(FormatVersionMismatch):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.tbz"
        path.write_bytes(b"NOPE\n" + b"\x00" * 32)
        with pytest.raises(FormatVersionMismatch):
            load(path)

    def test_rewritten_header_still_loads(self, tmp_path):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        rewrite_header(path, json_edit(lambda fields: None))
        assert load(path).spec == small_system().spec

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_bad_header(self, tmp_path, case):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        rewrite_header(path, BAD_HEADERS[case])
        with pytest.raises(FormatError) as err:
            load(path)
        assert type(err.value) is FormatError  # not a version or checksum failure

    def test_empty_grid_with_matching_payload(self, tmp_path):
        # ny = nx = 0 makes the generator size (2*0-1)**2 * ne**2 = 1 scalar
        # for ne = 1, so this payload passes the size and checksum checks
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        rewrite_header(path, json_edit(lambda f: f.update(ny=0, nx=0, ne=1, nb=0)))
        blob = path.read_bytes()
        start = len(b"TBZ2\n") + 4
        (hlen,) = struct.unpack_from("<I", blob, start - 4)
        payload = bytes(16)
        trailer = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(blob[: start + hlen] + payload + trailer)
        with pytest.raises(FormatError) as err:
            load(path)
        assert type(err.value) is FormatError

    @pytest.mark.parametrize("resize", [lambda b: b[:7], lambda b: b[:20], lambda b: b[:-3],
                                        lambda b: b + b"\x00"],
                             ids=["cut-in-header-length", "cut-in-header", "cut-in-trailer",
                                  "trailing-byte"])
    def test_wrong_file_size(self, tmp_path, resize):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(ChecksumMismatch):
            load(path)

    def test_oversized_header_fails_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        rewrite_header(path, json_edit(lambda f: f.update(ny=10**6, nx=10**6)))

        def refuse(*args, **kwargs):
            raise AssertionError("payload buffer allocated before the size check")

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(ChecksumMismatch):
            load(path)

    def test_trailer_is_blake2b_of_the_payload(self, tmp_path):
        sys_ = small_system()
        path = tmp_path / "p.tbz"
        save(sys_, path)
        blob = path.read_bytes()
        payload = b"".join(np.asarray(part, dtype="<c16").tobytes()
                           for part in (sys_.gen.stacked4(), sys_.zb, sys_.zc))
        assert blob[:5] == b"TBZ2\n"
        assert blob[-8 - len(payload) : -8] == payload
        assert blob[-8:] == hashlib.blake2b(payload, digest_size=8).digest()

    def test_tbz1_loads_bit_exactly(self, tmp_path):
        sys_ = small_system()
        old, new = tmp_path / "old.tbz", tmp_path / "new.tbz"
        write_tbz1(sys_, old)
        save(sys_, new)
        a, b = load(old), load(new)
        assert np.array_equal(a.gen.stacked4(), b.gen.stacked4())
        assert np.array_equal(a.zb, b.zb)
        assert np.array_equal(a.zc, b.zc)
        assert a.spec == b.spec == sys_.spec

    def test_tbz1_corrupted_payload(self, tmp_path):
        path = tmp_path / "p.tbz"
        write_tbz1(small_system(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load(path)

    @pytest.mark.parametrize("old_magic", [False, True], ids=["tbz2-magic", "tbz1-magic"])
    def test_magic_and_version_must_agree(self, tmp_path, old_magic):
        path = tmp_path / "p.tbz"
        (write_tbz1 if old_magic else save)(small_system(), path)
        rewrite_header(path, json_edit(lambda f: f.update(version=2 if old_magic else 1)))
        with pytest.raises(FormatVersionMismatch):
            load(path)

    def test_fnv1a64_reference_values(self):
        # standard FNV-1a test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

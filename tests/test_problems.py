"""Synthetic problem generation, excitations and TBZ serialization."""

import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from helpers import (
    BAD_HEADERS,
    block_at,
    json_edit,
    nonfinite_system,
    reference_fill,
    rewrite_header,
    wrap_generator,
)
from toepsolve import problems
from toepsolve.errors import (
    BlockShapeMismatch,
    ChecksumMismatch,
    FormatError,
    FormatVersionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    TooLargeForOracle,
)
from toepsolve.problems import (
    ArrayProblemSpec,
    BorderedSystem,
    assemble_full,
    build_excitations,
    generate,
    load,
    save,
)
from toepsolve.solvers import GmresConfig, solve_multi_rhs_vectorized
from toepsolve.toeplitz import assemble_dense, precompute_spectral


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

    def test_spec_is_frozen(self, tmp_path):
        # an assignment would skip every check of __post_init__, and save could then
        # write a file that load rejects
        sys_ = problems.generate(ArrayProblemSpec(ny=1, nx=2, ne=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys_.spec.wavenumber = True
        problems.save(sys_, tmp_path / "s.tbz")
        assert problems.load(tmp_path / "s.tbz").spec == sys_.spec

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=0)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=0, nx=1, ne=1)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=1, nb=-1)
        with pytest.raises(InvalidSpec):
            ArrayProblemSpec(ny=1, nx=1, ne=1, pitch=0.0)
        with pytest.raises(InvalidSpec, match="regularization must be > 0"):
            ArrayProblemSpec(ny=1, nx=1, ne=1, regularization=0.0)
        with pytest.raises(InvalidSpec, match="nb and seed must be >= 0"):
            ArrayProblemSpec(ny=1, nx=1, ne=1, seed=-1)
        for name in ("ny", "nx", "ne", "nb", "seed"):
            for value in (2.5, 2.0, True, "2", 2 + 0j):
                with pytest.raises(InvalidSpec, match="integers"):
                    ArrayProblemSpec(**({"ny": 2, "nx": 2, "ne": 2} | {name: value}))
        for real in ("wavenumber", "pitch", "regularization", "diagonal_shift"):
            for value in (math.inf, -math.inf, math.nan, True, "3", 3 + 0j):
                with pytest.raises(InvalidSpec, match="finite"):
                    ArrayProblemSpec(ny=1, nx=1, ne=1, **{real: value})


# specs whose fill must equal ``reference_fill`` byte for byte: the 16x16 and 12x20
# benchmark problems, an odd border, no border, one DOF per element, a short pitch,
# and wavenumber 0, whose phase must keep the +0.0 that -1j*k*r gives
FILL_SPECS = {
    "bench-16x16": ArrayProblemSpec(ny=16, nx=16, ne=8, wavenumber=3.0),
    "bench-12x20": ArrayProblemSpec(ny=12, nx=20, ne=8, wavenumber=3.0),
    "3x5-nb-7-k-6": ArrayProblemSpec(ny=3, nx=5, ne=4, nb=7, wavenumber=6.0, seed=2),
    "nb-0": ArrayProblemSpec(ny=2, nx=3, ne=3, nb=0, seed=1),
    "ne-1": ArrayProblemSpec(ny=4, nx=3, ne=1, seed=4),
    "pitch-0.5": ArrayProblemSpec(ny=4, nx=4, ne=3, pitch=0.5, seed=5),
    "k-0": ArrayProblemSpec(ny=4, nx=5, ne=3, wavenumber=0.0, seed=6),
}


class TestGenerate:
    def test_generator_transpose_symmetry_exact(self):
        sys_ = small_system()
        for o2 in range(-2, 3):
            for o1 in range(-2, 3):
                assert np.array_equal(block_at(sys_.gen, -o2, -o1), block_at(sys_.gen, o2, o1).T)

    def test_closed_form_single_cell(self):
        sys_ = generate(
            ArrayProblemSpec(
                ny=1, nx=1, ne=1, nb=0, wavenumber=0.0, regularization=1.0,
                diagonal_shift=0.25, seed=3,
            )
        )
        # r = sqrt(0 + 1) = 1, so the only entry is 1/(4*pi) + shift
        want = 1.0 / (4.0 * np.pi) + 0.25
        assert block_at(sys_.gen, 0, 0)[0, 0] == pytest.approx(want, rel=1e-15)

    def test_deterministic_in_seed(self):
        a, b = small_system(), small_system()
        assert np.array_equal(a.gen.blocks, b.gen.blocks)
        assert np.array_equal(a.zb, b.zb)
        assert np.array_equal(a.zc, b.zc)
        c = small_system(seed=8)
        assert not np.array_equal(a.gen.blocks, c.gen.blocks)

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
                            assert np.array_equal(blk, block_at(sys_.gen, i2 - j2, i1 - j1))

    @pytest.mark.parametrize("nb, wx, wy", [(0, 3.0, 2.0), (1, 1.0, 1.0), (40, 5.0, 3.0),
                                            (200, 0.7, 2.3)])
    def test_border_points_lie_on_the_boundary_in_arclength_order(self, nb, wx, wy):
        for seed in range(5):
            x, y = problems._perimeter_points(np.random.default_rng(seed), nb, wx, wy).T
            eps = 1e-12 * (wx + wy)
            assert np.all((x > -eps) & (x < wx + eps) & (y > -eps) & (y < wy + eps))
            # arclength from the origin, counter-clockwise: bottom, right, top, left
            bottom, right, top = (y == 0) & (x < wx), (x == wx) & (y < wy), (y == wy) & (x > 0)
            left = (x == 0) & ~(bottom | right | top)
            assert np.all(bottom | right | top | left)
            s = np.select([bottom, right, top], [x, wx + y, 2 * wx + wy - x], 2 * (wx + wy) - y)
            assert np.all(np.diff(s) >= -eps)

    @pytest.mark.parametrize("spec", list(FILL_SPECS.values()), ids=list(FILL_SPECS))
    def test_fill_bytes_equal_the_out_of_place_formula(self, spec):
        sys_ = generate(spec)
        for got, want in zip((sys_.gen.blocks, sys_.zb, sys_.zc), reference_fill(spec)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_overflowing_distances_are_an_invalid_spec(self):
        # the squared distances overflow to inf; a numpy warning would fail
        # this test, as warnings are errors here
        with pytest.raises(InvalidSpec, match="kernel is not finite"):
            generate(ArrayProblemSpec(ny=2, nx=2, ne=2, pitch=1e200))

    def test_fill_scratch_stays_below_one_border_block(self):
        # the fill's scratch is one float64 array of Z_B's shape, half of zb.nbytes;
        # an out-of-place fill holds several complex (nb, n) temporaries at once
        spec = ArrayProblemSpec(ny=12, nx=12, ne=8)
        tracemalloc.start()
        try:
            sys_ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sys_.gen.blocks.nbytes + sys_.zb.nbytes + sys_.zc.nbytes
        assert peak - returned < sys_.zb.nbytes

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
        assert sys_.zb.shape == (0, sys_.array_dim) and sys_.zc.shape == (0, 0)
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

    @pytest.mark.parametrize("feed", [1.5, True, "1"])
    def test_feed_that_is_not_an_integer(self, feed):
        with pytest.raises(IndexOutOfRange, match=f"feed index {feed} outside 0..3"):
            build_excitations(small_system(), feed_index=feed)

    @pytest.mark.parametrize("element", [-1, 9, True, 1.0, "1"])
    def test_element_out_of_range(self, element):
        with pytest.raises(IndexOutOfRange, match=f"element {element} outside 0..8"):
            build_excitations(small_system(), element=element)

    def test_numpy_integer_indices(self):
        sys_ = small_system()
        got = build_excitations(sys_, np.int64(2), element=np.int32(5)).matrix
        assert np.array_equal(got, build_excitations(sys_, 2).matrix[:, 5:6])

    def test_one_element_builds_only_its_column(self):
        sys_ = small_system(ny=12, nx=12)  # 144 elements
        every = build_excitations(sys_, feed_index=2).matrix
        tracemalloc.start()
        try:
            one = build_excitations(sys_, feed_index=2, element=77).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(one, every[:, 77:78]) and one.flags.c_contiguous
        assert peak <= 1.5 * one.nbytes < every.nbytes / 50


def _spec_fields(**fields):
    return lambda s: (s.gen, s.zb, s.zc, dataclasses.replace(s.spec, **fields))


# every field that the arrays must agree with, and a relabelling to a grid of the
# same array dimension, which only the generator's grid can tell apart
MISMATCHED = {
    "ny": _spec_fields(ny=4),
    "nx": _spec_fields(nx=2),
    "ne": _spec_fields(ne=2),
    "nb": _spec_fields(nb=7),
    "grid-9x1": _spec_fields(ny=9, nx=1),
    "zb": lambda s: (s.gen, s.zb[:, :-1], s.zc, s.spec),
    "zc": lambda s: (s.gen, s.zb, s.zc[:-1, :-1], s.spec),
}


@pytest.mark.parametrize("case", MISMATCHED)
def test_bordered_system_arrays_must_match_the_spec(case):
    with pytest.raises(BlockShapeMismatch):
        BorderedSystem(*MISMATCHED[case](small_system()))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        sys_ = small_system()
        path = tmp_path / "p.tbz"
        save(sys_, path)
        back = load(path)
        assert np.array_equal(back.gen.blocks, sys_.gen.blocks)
        assert np.array_equal(back.zb, sys_.zb)
        assert np.array_equal(back.zc, sys_.zc)
        assert back.spec == sys_.spec
        for arr in (back.gen.blocks, back.zb, back.zc):
            assert arr.flags.writeable and arr.flags.c_contiguous

    def test_loaded_generator_is_a_view_of_the_payload(self, tmp_path):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        back = load(path)
        blocks = back.gen.blocks
        assert blocks.flags.c_contiguous and blocks.flags.writeable
        assert blocks.base is not None and blocks.base is back.zb.base is back.zc.base
        # the payload is the generator, then Z_B, then Z_C, with no gap
        assert blocks.ctypes.data + blocks.nbytes == back.zb.ctypes.data

    @pytest.mark.parametrize("stage", ["save", "precompute_spectral"])
    def test_generator_is_read_in_place(self, tmp_path, stage):
        # a stacked copy of the generator would add gen.blocks.nbytes to the peak
        sys_ = small_system(ny=8, nx=8, ne=8)
        run = {"save": lambda: save(sys_, tmp_path / "p.tbz"),
               "precompute_spectral": lambda: precompute_spectral(sys_.gen)}[stage]
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        spectral = 0 if out is None else out.diag_blocks.nbytes
        assert peak - spectral < sys_.gen.blocks.nbytes

    @pytest.mark.parametrize("part", ["the generator", "Z_B", "Z_C"])
    def test_payload_that_is_not_finite(self, tmp_path, part):
        path = tmp_path / "p.tbz"
        save(nonfinite_system(part), path)
        with pytest.raises(FormatError, match=f"payload holds inf or NaN in {part}$"):
            load(path)

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
                           for part in (sys_.gen.blocks, sys_.zb, sys_.zc))
        assert blob[:5] == b"TBZ2\n"
        assert blob[-8 - len(payload) : -8] == payload
        assert blob[-8:] == hashlib.blake2b(payload, digest_size=8).digest()

    # a TBZ2 file whose header says version 1, and a file of the retired TBZ1
    # format (its magic, version 1): only the TBZ2 magic with version 2 loads
    @pytest.mark.parametrize("magic", [b"TBZ2\n", b"TBZ1\n"], ids=["tbz2-magic", "tbz1-magic"])
    def test_magic_and_version_must_agree(self, tmp_path, magic):
        path = tmp_path / "p.tbz"
        save(small_system(), path)
        rewrite_header(path, json_edit(lambda f: f.update(version=1)))
        path.write_bytes(magic + path.read_bytes()[len(magic) :])
        with pytest.raises(FormatVersionMismatch, match="magic" if magic == b"TBZ1\n" else "version"):
            load(path)

    def test_file_bytes_are_stable(self, tmp_path):
        # every scalar and header real is exact in binary, so the bytes depend on
        # the format alone, not on the host's exp and sqrt
        spec = ArrayProblemSpec(ny=2, nx=3, ne=2, nb=3, wavenumber=2.5, pitch=0.5,
                                regularization=0.125, diagonal_shift=1.5, seed=4)
        i = np.arange(3 * 5 * 2 * 2 + 3 * 12 + 3 * 3)
        scalars = i % 7 - 3 + 1j * (i % 5)
        gen = wrap_generator(scalars[:60].reshape(3, 5, 2, 2))
        sys_ = BorderedSystem(gen, scalars[60:96].reshape(3, 12), scalars[96:].reshape(3, 3), spec)
        path = tmp_path / "p.tbz"
        save(sys_, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "2b4297f66de982513d19beb149798771831c964776a543078885cc8634bbe8f4"
        assert load(path).spec == spec

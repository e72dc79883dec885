"""Synthetic bordered array problems, excitations and TBZ serialization.

The generator stands in for a real integral-equation matrix fill: every
array element carries the same set of pseudo-DOF positions inside its
grid cell, so the interaction block between two elements depends only on
their (row, column) offset.  That is exactly what makes the array part a
two-level block-Toeplitz matrix.  A regularized Helmholtz-type kernel

    exp(-i*k*r) / (4*pi*r),   r = sqrt(|displacement|^2 + a^2)

fills all blocks; the smoothing length ``a`` removes the singularity at
coincident points and a diagonal shift keeps the self blocks dominant
and invertible.  Border DOFs live on the array perimeter and couple to
everything through the same kernel, giving the bordered layout

    Z = [[Z_A, Z_B^T], [Z_B, Z_C]].

The fill costs one kernel evaluation per stored entry and nothing more:
the generator, Z_B and Z_C are each built inside their own complex128
result, and the only scratch is one float64 array of the part's shape.
On a 2-vCPU Xeon with one thread, an entry takes about 70 ns, of which
the complex ``exp`` takes about 45 ns; a 16x16 grid (ne 8, nb 256)
fills in about 40 ms.

A system is stored as a TBZ2 file: the magic ``b"TBZ2\\n"``, the header
length as ``<u4``, a UTF-8 JSON header with ``"version": 2``, the payload
(the generator blocks, Z_B and Z_C as little-endian ``c16`` scalars) and
an 8-byte trailer, ``blake2b(payload, digest_size=8)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    BlockShapeMismatch,
    ChecksumMismatch,
    FormatError,
    FormatVersionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    TooLargeForOracle,
)
from .toeplitz import BlockGenerator2L, assemble_dense, circulant_offsets

__all__ = [
    "ArrayProblemSpec",
    "BorderedSystem",
    "ExcitationSet",
    "generate",
    "assemble_full",
    "build_excitations",
    "save",
    "load",
    "DEFAULT_ORACLE_CAP",
]

DEFAULT_ORACLE_CAP = 20_000

_MAGIC, _VERSION = b"TBZ2\n", 2
_TRAILER = 8  # checksum bytes after the payload
# TBZ header key -> ArrayProblemSpec field, which checks the value's type
_HEADER = {"ny": "ny", "nx": "nx", "ne": "ne", "nb": "nb", "seed": "seed",
           "k": "wavenumber", "pitch": "pitch", "a": "regularization", "shift": "diagonal_shift"}
# header key -> the one value this format has: the payload's scalar type and layout
_HEADER_FIXED = {"dtype": "c128", "order": "row-major", "endian": "little"}


@dataclass(frozen=True)
class ArrayProblemSpec:
    """Parameters of a synthetic bordered array problem.

    ``nb`` defaults to 8*(nx+ny) (proportional to the perimeter) and the
    smoothing length defaults to pitch/10.
    """

    ny: int
    nx: int
    ne: int
    nb: int | None = None
    wavenumber: float = 3.0
    pitch: float = 1.0
    regularization: float | None = None
    diagonal_shift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # types first, as the defaults below are formed from them; a bool counts as neither type
        ints = {k: getattr(self, k) for k in ("ny", "nx", "ne", "nb", "seed")}
        if not all(type(v) is int or k == "nb" and v is None for k, v in ints.items()):
            raise InvalidSpec(f"ny, nx, ne, nb and seed must be integers, got {ints}")
        reals = {k: getattr(self, k) for k in ("wavenumber", "pitch", "regularization", "diagonal_shift")}
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < math.inf
                   or k == "regularization" and v is None for k, v in reals.items()):
            raise InvalidSpec(f"wavenumber, pitch, regularization and shift must be finite, got {reals}")
        if self.nb is None:
            object.__setattr__(self, "nb", 8 * (self.nx + self.ny))
        if self.regularization is None:
            object.__setattr__(self, "regularization", self.pitch / 10.0)
        if min(self.ny, self.nx, self.ne) < 1:
            raise InvalidSpec(f"ny, nx, ne must be >= 1, got {(self.ny, self.nx, self.ne)}")
        if min(self.nb, self.seed) < 0:
            raise InvalidSpec(f"nb and seed must be >= 0, got {(self.nb, self.seed)}")
        if not self.pitch > 0:
            raise InvalidSpec(f"pitch must be > 0, got {self.pitch}")
        if not self.regularization > 0:
            raise InvalidSpec(f"regularization must be > 0, got {self.regularization}")

    @property
    def elements(self) -> int:
        return self.ny * self.nx

    @property
    def array_dim(self) -> int:
        return self.ny * self.nx * self.ne

    @property
    def dim(self) -> int:
        return self.array_dim + self.nb


@dataclass(eq=False)
class BorderedSystem:
    """Generator for the array part plus dense border coupling blocks."""

    gen: BlockGenerator2L
    zb: np.ndarray  # (nb, array_dim)
    zc: np.ndarray  # (nb, nb)
    spec: ArrayProblemSpec

    def __post_init__(self):
        s = self.spec
        if ((self.gen.n2, self.gen.n1, self.gen.n0) != (s.ny, s.nx, s.ne)
                or self.zb.shape != (s.nb, s.array_dim) or self.zc.shape != (s.nb, s.nb)):
            raise BlockShapeMismatch(
                f"generator {self.gen.n2}x{self.gen.n1} (ne {self.gen.n0}), Z_B {self.zb.shape} and "
                f"Z_C {self.zc.shape} do not match the spec's grid {s.ny}x{s.nx} (ne {s.ne}, nb {s.nb})")

    @property
    def array_dim(self) -> int:
        return self.gen.dim

    @property
    def nb(self) -> int:
        return self.zb.shape[0]

    @property
    def dim(self) -> int:
        return self.array_dim + self.nb


@dataclass(eq=False)
class ExcitationSet:
    """One unit-feed excitation column per array element; border rows zero."""

    matrix: np.ndarray  # (dim, ny*nx)


def _kernel(op, xs, ys, k: float, a: float) -> np.ndarray:
    """The kernel at the displacements ``op(*xs)`` and ``op(*ys)``, built in its result.

    The operands broadcast to the result's shape.  ``dx*dx + dy*dy``,
    then r, then 4*pi*r go to one float64 scratch array of that shape;
    ``dy`` and every kernel step are written into the complex128 result.
    The bytes are those of ``np.exp(-1j*k*r) / (4*pi*r)`` formed out of
    place.  Entries where r is 0 or overflows become inf or NaN, without
    a warning.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (*xs, *ys)))
    out = np.empty(shape, dtype=np.complex128)
    with np.errstate(all="ignore"):  # ``generate`` rejects a kernel that is not finite
        r = op(*xs, out=np.empty(shape))
        r *= r
        dy = op(*ys, out=out.real)
        dy *= dy
        r += dy
        r += a * a
        np.sqrt(r, out=r)
        out.real = 0.0
        # 0.0 - k, not -k: at k = 0 the phase is +0.0, as -1j*k*r gives it
        np.multiply(r, 0.0 - k, out=out.imag)
        np.exp(out, out=out)
        r *= 4.0 * np.pi
        out /= r
    return out


def _not_finite(blocks, zb, zc) -> str | None:
    """The first of the generator, Z_B and Z_C that holds inf or NaN, else None."""
    for name, part in (("the generator", blocks), ("Z_B", zb), ("Z_C", zc)):
        if not np.isfinite(part.view(np.float64)).all():
            return name
    return None


def _perimeter_points(rng: np.random.Generator, nb: int, wx: float, wy: float) -> np.ndarray:
    """nb seeded positions on the boundary of the rectangle [0,wx] x [0,wy]."""
    perim = 2.0 * (wx + wy)
    t = np.sort(rng.uniform(0.0, perim, size=nb))
    # sides in arclength order: bottom, right, top, left
    side = np.searchsorted([wx, wx + wy, 2 * wx + wy], t, side="right")
    x = np.choose(side, [t, wx, 2 * wx + wy - t, 0.0])
    y = np.choose(side, [0.0, t - wx, wy, perim - t])
    return np.stack([x, y], axis=1)


def generate(spec: ArrayProblemSpec) -> BorderedSystem:
    """Build the bordered system for a problem spec, deterministically.

    Draw order from the seeded generator is fixed (DOF offsets first,
    border positions second) so identical specs give identical bytes.
    Each entry costs one kernel evaluation, written in place into the
    returned arrays; the transient memory is one float64 array of Z_B's
    shape.  Raises InvalidSpec if the kernel is not finite, as when the
    square of the smoothing length underflows to 0, and SingularMatrix
    if Z_C is singular.
    """
    rng = np.random.default_rng(spec.seed)
    d, k, a = spec.pitch, spec.wavenumber, spec.regularization
    dof = rng.uniform(0.0, d, size=(spec.ne, 2))  # shared per-element DOF offsets
    border = _perimeter_points(rng, spec.nb, spec.nx * d, spec.ny * d)

    # entry (m, n) of the block at offset (dr, dc) depends only on the
    # offset displacement plus the DOF offset difference p_n - p_m.
    off2 = circulant_offsets(spec.ny).astype(float) * d  # row displacement
    off1 = circulant_offsets(spec.nx).astype(float) * d  # column displacement
    ddx = dof[None, :, 0] - dof[:, None, 0]  # (m, n): p_n.x - p_m.x
    ddy = dof[None, :, 1] - dof[:, None, 1]
    blocks4 = _kernel(np.add, (off1[None, :, None, None], ddx), (off2[:, None, None, None], ddy), k, a)
    blocks4[0, 0] += spec.diagonal_shift * np.eye(spec.ne)

    gen = BlockGenerator2L(spec.ny, spec.nx, spec.ne, blocks4)

    # global DOF order: rows outer, columns inner, DOF innermost
    pos = np.empty((spec.ny, spec.nx, spec.ne, 2))
    pos[..., 0] = np.arange(spec.nx)[None, :, None] * d + dof[:, 0]
    pos[..., 1] = np.arange(spec.ny)[:, None, None] * d + dof[:, 1]
    pos = pos.reshape(spec.array_dim, 2)

    bx, by = border[:, :1], border[:, 1:]
    zb = _kernel(np.subtract, (bx, pos[:, 0]), (by, pos[:, 1]), k, a)
    zc = _kernel(np.subtract, (bx, border[:, 0]), (by, border[:, 1]), k, a)
    zc += spec.diagonal_shift * np.eye(spec.nb)

    part = _not_finite(blocks4, zb, zc)
    if part:
        raise InvalidSpec(f"kernel is not finite for {spec} in {part}")
    numerics.lu_factor(zc)  # invertibility check; raises SingularMatrix
    return BorderedSystem(gen, zb, zc, spec)


def assemble_full(sys: BorderedSystem, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense [[Z_A, Z_B^T], [Z_B, Z_C]]; refuses above the oracle cap."""
    if sys.dim > cap:
        raise TooLargeForOracle(f"dense assembly of dimension {sys.dim} exceeds cap {cap}")
    za = assemble_dense(sys.gen)
    return np.block([[za, sys.zb.T], [sys.zb, sys.zc]])


def build_excitations(sys: BorderedSystem, feed_index: int = 0, *,
                      element: int | None = None) -> ExcitationSet:
    """Unit excitation of the feed DOF of every element, one column each.

    With ``element`` given, only that element's column is built, as a
    (dim, 1) block.  Raises IndexOutOfRange for a feed index outside
    0..ne-1 or an element outside 0..elements-1, and for either that is
    a bool or not an integer.
    """
    ne, m = sys.spec.ne, sys.spec.elements
    index = lambda i, n: isinstance(i, numbers.Integral) and not isinstance(i, bool) and 0 <= i < n
    if not index(feed_index, ne):
        raise IndexOutOfRange(f"feed index {feed_index} outside 0..{ne - 1}")
    if element is not None and not index(element, m):
        raise IndexOutOfRange(f"element {element} outside 0..{m - 1}")
    elements = np.arange(m) if element is None else np.array([element])
    v = np.zeros((sys.dim, elements.size), dtype=np.complex128)
    v[elements * ne + feed_index, np.arange(elements.size)] = 1.0
    return ExcitationSet(v)


def save(sys: BorderedSystem, path) -> None:
    """Write a TBZ2 file: magic, JSON header, raw scalars, blake2b-64 checksum.

    The file is the magic ``b"TBZ2\\n"``, the header length as ``<u4``,
    the UTF-8 JSON header (``"version": 2``), the payload and an 8-byte
    trailer, ``blake2b(payload, digest_size=8)``.  The payload is
    little-endian interleaved (re, im) float64 scalars: the generator
    blocks in circulant order (level 2 outer, level 1 inner, each block
    row-major), then Z_B and Z_C row-major.  Each part is hashed and
    written as it is, without joining them.
    """
    header = {key: getattr(sys.spec, name) for key, name in _HEADER.items()}
    header.update(version=_VERSION, **_HEADER_FIXED)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    h = hashlib.blake2b(digest_size=_TRAILER)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for part in (sys.gen.blocks, sys.zb, sys.zc):
            part = np.ascontiguousarray(part, dtype="<c16")
            h.update(part)
            fh.write(part)
        fh.write(h.digest())


def _header_spec(raw: bytes) -> ArrayProblemSpec:
    """The problem spec a TBZ header describes; FormatError if it describes none."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"header is a JSON {type(header).__name__}, not an object")
    if header.get("version") != _VERSION:
        raise FormatVersionMismatch(f"unsupported version {header.get('version')!r}")
    for key, value in _HEADER_FIXED.items():
        if header.get(key) != value:
            raise FormatError(f"header {key!r} is {header.get(key)!r}, not {value!r}")
    # a null is missing too: the spec would read it as its default
    if missing := [key for key in _HEADER if header.get(key) is None]:
        raise FormatError(f"header lacks {missing[0]!r}")
    try:
        return ArrayProblemSpec(**{name: header[key] for key, name in _HEADER.items()})
    except InvalidSpec as exc:
        raise FormatError(f"header rejected: {exc}") from None


def load(path) -> BorderedSystem:
    """Read a TBZ2 file (see ``save``) back into a BorderedSystem.

    The file size is checked against the header before the payload is
    read, in one pass, into one array whose views are returned.

    Raises FormatVersionMismatch for a foreign magic (that of the older
    TBZ1 format included) or a header version other than 2, FormatError
    for an undecodable header, a missing or null header key, a value of
    the wrong type or range (``ArrayProblemSpec`` checks both) or a
    ``dtype``, ``order`` or ``endian`` other than the one ``save``
    writes or a payload that holds inf or NaN (checked after the
    checksum, naming the generator, Z_B or Z_C), and ChecksumMismatch
    for truncated, overlong or corrupted files.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FormatVersionMismatch(f"bad magic {magic!r}")
        length = fh.read(4)
        if len(length) < 4:
            raise ChecksumMismatch("file truncated inside header length")
        (hlen,) = struct.unpack("<I", length)
        if size < fh.tell() + hlen:
            raise ChecksumMismatch("file truncated inside header")
        spec = _header_spec(fh.read(hlen))

        ny, nx, ne, nb = spec.ny, spec.nx, spec.ne, spec.nb
        n_gen = (2 * ny - 1) * (2 * nx - 1) * ne * ne
        n_zb = nb * spec.array_dim
        n = n_gen + n_zb + nb * nb
        have = size - fh.tell() - _TRAILER
        if have != 16 * n:
            raise ChecksumMismatch(f"payload size mismatch: have {have} bytes, expected {16 * n}")
        scalars = np.empty(n, dtype="<c16")
        if (fh.readinto(scalars) != have
                or hashlib.blake2b(scalars, digest_size=_TRAILER).digest() != fh.read(_TRAILER)):
            raise ChecksumMismatch("payload checksum mismatch")

    blocks = scalars[:n_gen].reshape(2 * ny - 1, 2 * nx - 1, ne, ne)
    zb = scalars[n_gen : n_gen + n_zb].reshape(nb, spec.array_dim)
    zc = scalars[n_gen + n_zb :].reshape(nb, nb)
    part = _not_finite(blocks, zb, zc)
    if part:
        raise FormatError(f"payload holds inf or NaN in {part}")
    return BorderedSystem(BlockGenerator2L(ny, nx, ne, blocks), zb, zc, spec)

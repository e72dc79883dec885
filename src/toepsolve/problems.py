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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    ChecksumMismatch,
    FormatError,
    FormatVersionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    TooLargeForOracle,
)
from .toeplitz import BlockGenerator1L, BlockGenerator2L, assemble_dense, circulant_offsets

__all__ = [
    "ArrayProblemSpec",
    "BorderedSystem",
    "ExcitationSet",
    "generate",
    "assemble_full",
    "build_excitations",
    "save",
    "load",
    "fnv1a64",
    "DEFAULT_ORACLE_CAP",
]

DEFAULT_ORACLE_CAP = 20_000

_MAGIC = b"TBZ1\n"
_VERSION = 1
_HEADER_INTS = ("ny", "nx", "ne", "nb", "seed")
_HEADER_REALS = ("k", "pitch", "a", "shift")


@dataclass
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
        if self.nb is None:
            self.nb = 8 * (self.nx + self.ny)
        if self.regularization is None:
            self.regularization = self.pitch / 10.0
        if min(self.ny, self.nx, self.ne) < 1:
            raise InvalidSpec(f"ny, nx, ne must be >= 1, got {(self.ny, self.nx, self.ne)}")
        if self.nb < 0:
            raise InvalidSpec(f"nb must be >= 0, got {self.nb}")
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


def _kernel(dist2: np.ndarray, k: float, a: float) -> np.ndarray:
    r = np.sqrt(dist2 + a * a)
    return np.exp(-1j * k * r) / (4.0 * np.pi * r)


def _perimeter_points(rng: np.random.Generator, nb: int, wx: float, wy: float) -> np.ndarray:
    """nb seeded positions on the boundary of the rectangle [0,wx] x [0,wy]."""
    perim = 2.0 * (wx + wy)
    t = np.sort(rng.uniform(0.0, perim, size=nb))
    pts = np.empty((nb, 2))
    for i, ti in enumerate(t):
        if ti < wx:
            pts[i] = (ti, 0.0)
        elif ti < wx + wy:
            pts[i] = (wx, ti - wx)
        elif ti < 2 * wx + wy:
            pts[i] = (2 * wx + wy - ti, wy)
        else:
            pts[i] = (0.0, perim - ti)
    return pts


def generate(spec: ArrayProblemSpec) -> BorderedSystem:
    """Build the bordered system for a problem spec, deterministically.

    Draw order from the seeded generator is fixed (DOF offsets first,
    border positions second) so identical specs give identical bytes.
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
    dist2 = (
        (off1[None, :, None, None] + ddx[None, None]) ** 2
        + (off2[:, None, None, None] + ddy[None, None]) ** 2
    )
    blocks4 = _kernel(dist2, k, a)
    blocks4[0, 0] += spec.diagonal_shift * np.eye(spec.ne)

    cols = tuple(BlockGenerator1L(spec.nx, spec.ne, blocks4[i]) for i in range(2 * spec.ny - 1))
    gen = BlockGenerator2L(spec.ny, spec.nx, spec.ne, cols)

    # global DOF order: rows outer, columns inner, DOF innermost
    pos = np.empty((spec.ny, spec.nx, spec.ne, 2))
    pos[..., 0] = np.arange(spec.nx)[None, :, None] * d + dof[:, 0]
    pos[..., 1] = np.arange(spec.ny)[:, None, None] * d + dof[:, 1]
    pos = pos.reshape(spec.array_dim, 2)

    diff_b = border[:, None, :] - pos[None, :, :]
    zb = _kernel((diff_b**2).sum(-1), k, a)
    diff_c = border[:, None, :] - border[None, :, :]
    zc = _kernel((diff_c**2).sum(-1), k, a) + spec.diagonal_shift * np.eye(spec.nb)

    if spec.nb:
        numerics.lu_factor(zc)  # invertibility check; raises SingularMatrix
    return BorderedSystem(gen, zb, zc, spec)


def assemble_full(sys: BorderedSystem, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense [[Z_A, Z_B^T], [Z_B, Z_C]]; refuses above the oracle cap."""
    if sys.dim > cap:
        raise TooLargeForOracle(f"dense assembly of dimension {sys.dim} exceeds cap {cap}")
    za = assemble_dense(sys.gen)
    return np.block([[za, sys.zb.T], [sys.zb, sys.zc]])


def build_excitations(sys: BorderedSystem, feed_index: int = 0) -> ExcitationSet:
    """Unit excitation of the feed DOF of every element, one column each."""
    ne = sys.spec.ne
    if not 0 <= feed_index < ne:
        raise IndexOutOfRange(f"feed index {feed_index} outside 0..{ne - 1}")
    m = sys.spec.elements
    v = np.zeros((sys.dim, m), dtype=np.complex128)
    v[np.arange(m) * ne + feed_index, np.arange(m)] = 1.0
    return ExcitationSet(v)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _payload_bytes(sys: BorderedSystem) -> bytes:
    parts = [
        np.ascontiguousarray(sys.gen.stacked4(), dtype="<c16").tobytes(),
        np.ascontiguousarray(sys.zb, dtype="<c16").tobytes(),
        np.ascontiguousarray(sys.zc, dtype="<c16").tobytes(),
    ]
    return b"".join(parts)


def save(sys: BorderedSystem, path) -> None:
    """Write a TBZ1 file: magic, JSON header, raw scalars, FNV-1a checksum.

    Scalars are little-endian interleaved (re, im) float64; generator
    blocks in circulant order (level 2 outer, level 1 inner, each block
    row-major), then Z_B and Z_C row-major.
    """
    s = sys.spec
    header = {
        "version": _VERSION,
        "ny": s.ny,
        "nx": s.nx,
        "ne": s.ne,
        "nb": s.nb,
        "seed": s.seed,
        "k": s.wavenumber,
        "pitch": s.pitch,
        "a": s.regularization,
        "shift": s.diagonal_shift,
        "dtype": "c128",
        "order": "row-major",
        "endian": "little",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = _payload_bytes(sys)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(struct.pack("<Q", fnv1a64(payload)))


def load(path) -> BorderedSystem:
    """Read a TBZ1 file back into a BorderedSystem.

    Raises FormatVersionMismatch for foreign magics or header versions,
    FormatError for an undecodable header, a missing header key, a
    header value of the wrong type or a size out of range, and
    ChecksumMismatch for truncated or corrupted payloads.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise FormatVersionMismatch(f"bad magic {blob[:5]!r}")
    off = len(_MAGIC)
    if len(blob) < off + 4:
        raise ChecksumMismatch("file truncated inside header length")
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + hlen:
        raise ChecksumMismatch("file truncated inside header")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"unreadable header: {exc}") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"header is a JSON {type(header).__name__}, not an object")
    if header.get("version") != _VERSION:
        raise FormatVersionMismatch(f"unsupported version {header.get('version')!r}")
    for key in _HEADER_INTS + _HEADER_REALS:
        if key not in header:
            raise FormatError(f"header lacks {key!r}")
        value = header[key]
        kinds = int if key in _HEADER_INTS else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise FormatError(f"header {key!r} has type {type(value).__name__}: {value!r}")

    ny, nx, ne, nb = header["ny"], header["nx"], header["ne"], header["nb"]
    if min(ny, nx, ne) < 1 or nb < 0:
        raise FormatError(f"header sizes out of range: ny={ny}, nx={nx}, ne={ne}, nb={nb}")
    n_gen = (2 * ny - 1) * (2 * nx - 1) * ne * ne
    n_zb = nb * ny * nx * ne
    n_zc = nb * nb
    expect = (n_gen + n_zb + n_zc) * 16
    if len(blob) != off + expect + 8:
        raise ChecksumMismatch(
            f"payload size mismatch: have {len(blob) - off - 8} bytes, expected {expect}"
        )
    payload = blob[off : off + expect]
    (stored,) = struct.unpack_from("<Q", blob, off + expect)
    if fnv1a64(payload) != stored:
        raise ChecksumMismatch("payload checksum mismatch")

    scalars = np.frombuffer(payload, dtype="<c16")
    blocks4 = scalars[:n_gen].reshape(2 * ny - 1, 2 * nx - 1, ne, ne).astype(np.complex128)
    zb = scalars[n_gen : n_gen + n_zb].reshape(nb, ny * nx * ne).astype(np.complex128)
    zc = scalars[n_gen + n_zb :].reshape(nb, nb).astype(np.complex128)

    spec = ArrayProblemSpec(
        ny=ny,
        nx=nx,
        ne=ne,
        nb=nb,
        wavenumber=header["k"],
        pitch=header["pitch"],
        regularization=header["a"],
        diagonal_shift=header["shift"],
        seed=header["seed"],
    )
    cols = tuple(BlockGenerator1L(nx, ne, blocks4[i]) for i in range(2 * ny - 1))
    return BorderedSystem(BlockGenerator2L(ny, nx, ne, cols), zb, zc, spec)

"""Shared oracles and fixtures for the test suite.

All expected values are produced by independent brute-force routines
(naive DFT sums, dense assembly + LAPACK) so the fast paths are never
checked against themselves.
"""

import json
import struct

import numpy as np

from toepsolve.toeplitz import BlockGenerator1L, BlockGenerator2L


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def wrap_generator(blocks4) -> BlockGenerator2L:
    """The generator of a (2n2-1, 2n1-1, n0, n0) circulant-order block array."""
    blocks4 = np.asarray(blocks4, dtype=np.complex128)
    n2, n1, n0 = (blocks4.shape[0] + 1) // 2, (blocks4.shape[1] + 1) // 2, blocks4.shape[2]
    return BlockGenerator2L(n2, n1, n0, tuple(BlockGenerator1L(n1, n0, col) for col in blocks4))


def random_generator(rng, n2, n1, n0, symmetric=False, diag_boost=0.0) -> BlockGenerator2L:
    """Random 2-level generator; optionally transpose-symmetric or diagonally boosted.

    The symmetric generator is B + B'^T, where B' holds the blocks of B at
    the negated offsets, so its block at (-o2, -o1) is exactly the
    transpose of its block at (o2, o1).
    """
    blocks4 = random_complex(rng, 2 * n2 - 1, 2 * n1 - 1, n0, n0)
    if symmetric:
        neg2, neg1 = (-np.arange(2 * n2 - 1)) % (2 * n2 - 1), (-np.arange(2 * n1 - 1)) % (2 * n1 - 1)
        blocks4 = blocks4 + blocks4[neg2][:, neg1].swapaxes(2, 3)
    blocks4[0, 0] += diag_boost * np.eye(n0)
    return wrap_generator(blocks4)


def naive_dft(x, inverse=False):
    """O(n^2) reference DFT along the first axis."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    sign = 1 if inverse else -1
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.exp(sign * 2j * np.pi * j * k / n)
    out = np.tensordot(f, x, axes=(1, 0))
    return out / n if inverse else out


def dft_matrix(n, inverse=False):
    f = naive_dft(np.eye(n))
    return np.conj(f) / n if inverse else f


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    denom = np.linalg.norm(want)
    if denom == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(got - want) / denom)


def monotone_nonincreasing(history):
    return all(history[i + 1] <= history[i] for i in range(len(history) - 1))


def rewrite_header(path, edit):
    """Replace the JSON header of a TBZ file by ``edit(header_bytes)``.

    The header length field is updated; magic, payload and checksum are
    kept, so only the header decides whether the file loads.
    """
    blob = path.read_bytes()
    start = len(b"TBZ2\n") + 4  # magic, then the header length
    (hlen,) = struct.unpack_from("<I", blob, start - 4)
    header = edit(blob[start : start + hlen])
    path.write_bytes(blob[: start - 4] + struct.pack("<I", len(header)) + header + blob[start + hlen :])


def json_edit(change):
    def edit(header):
        fields = json.loads(header)
        change(fields)
        return json.dumps(fields).encode("utf-8")

    return edit


# header edits that every TBZ reader must reject with FormatError
BAD_HEADERS = {
    "non-utf8": lambda h: b"\xff" + h,
    "invalid-json": lambda h: h[:-1],
    "not-an-object": lambda h: b"[1, 2]",
    "missing-key": json_edit(lambda f: f.pop("nb")),
    "wrong-type": json_edit(lambda f: f.update(ny=2.0)),
    "empty-grid": json_edit(lambda f: f.update(ny=0, nx=0)),
    "negative-border": json_edit(lambda f: f.update(nb=-1)),
    "nan-wavenumber": json_edit(lambda f: f.update(k=float("nan"))),
    "nonpositive-pitch": json_edit(lambda f: f.update(pitch=-1.0)),
    # the payload is little-endian row-major c128 whatever these say
    "big-endian": json_edit(lambda f: f.update(endian="big")),
    "complex64": json_edit(lambda f: f.update(dtype="c64")),
    "column-major": json_edit(lambda f: f.update(order="column-major")),
    "missing-dtype": json_edit(lambda f: f.pop("dtype")),
}

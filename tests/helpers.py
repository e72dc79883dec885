"""Shared oracles and fixtures for the test suite.

All expected values are produced by independent brute-force routines
(naive DFT sums, dense assembly + LAPACK) so the fast paths are never
checked against themselves.
"""

import json
import struct

import numpy as np

from toepsolve import problems
from toepsolve.toeplitz import BlockGenerator2L, circulant_offsets


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def wrap_generator(blocks4) -> BlockGenerator2L:
    """The generator of a (2n2-1, 2n1-1, n0, n0) circulant-order block array."""
    blocks4 = np.asarray(blocks4, dtype=np.complex128)
    n2, n1, n0 = (blocks4.shape[0] + 1) // 2, (blocks4.shape[1] + 1) // 2, blocks4.shape[2]
    return BlockGenerator2L(n2, n1, n0, blocks4)


def block_at(gen, o2, o1) -> np.ndarray:
    """The generator block at signed offsets (o2, o1); the layout oracle of ``gen.blocks``.

    Level 2 offset o2 and level 1 offset o1 sit at circulant positions
    o2 mod (2*n2-1) and o1 mod (2*n1-1), nonnegative offsets first.
    """
    assert -gen.n2 < o2 < gen.n2 and -gen.n1 < o1 < gen.n1, (o2, o1)
    return gen.blocks[o2 % (2 * gen.n2 - 1), o1 % (2 * gen.n1 - 1)]


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


def reference_fill(spec):
    """The generator blocks, Z_B and Z_C of ``spec``, by the out-of-place formula.

    The border parts sum squares over an (nb, n, 2) difference tensor,
    and the kernel is ``np.exp(-1j*k*r) / (4*pi*r)``, each step a new
    array; the byte oracle of ``problems.generate``.
    """
    rng = np.random.default_rng(spec.seed)
    d, k, a = spec.pitch, spec.wavenumber, spec.regularization
    dof = rng.uniform(0.0, d, size=(spec.ne, 2))
    border = problems._perimeter_points(rng, spec.nb, spec.nx * d, spec.ny * d)

    def kernel(dist2):
        r = np.sqrt(dist2 + a * a)
        return np.exp(-1j * k * r) / (4.0 * np.pi * r)

    off2 = circulant_offsets(spec.ny).astype(float) * d
    off1 = circulant_offsets(spec.nx).astype(float) * d
    ddx = dof[None, :, 0] - dof[:, None, 0]  # (m, n): p_n.x - p_m.x
    ddy = dof[None, :, 1] - dof[:, None, 1]
    dist2 = (off1[None, :, None, None] + ddx) ** 2 + (off2[:, None, None, None] + ddy) ** 2
    blocks = kernel(dist2)
    blocks[0, 0] += spec.diagonal_shift * np.eye(spec.ne)

    pos = np.empty((spec.ny, spec.nx, spec.ne, 2))
    pos[..., 0] = np.arange(spec.nx)[None, :, None] * d + dof[:, 0]
    pos[..., 1] = np.arange(spec.ny)[:, None, None] * d + dof[:, 1]
    diff_b = border[:, None, :] - pos.reshape(spec.array_dim, 2)[None, :, :]
    zb = kernel((diff_b**2).sum(-1))
    diff_c = border[:, None, :] - border[None, :, :]
    zc = kernel((diff_c**2).sum(-1)) + spec.diagonal_shift * np.eye(spec.nb)
    return blocks, zb, zc


def dense_schur(sys_):
    """Dense S_A = Z_A - Z_B^T Z_C^-1 Z_B, from ``assemble_full`` and LAPACK's solve."""
    full = problems.assemble_full(sys_)
    a = sys_.array_dim
    if not sys_.nb:
        return full
    return full[:a, :a] - full[:a, a:] @ np.linalg.solve(full[a:, a:], full[a:, :a])


def nonfinite_system(part):
    """A 2x2 system (ne 2, nb 2) with one inf or NaN in ``part``.

    ``part`` is "the generator" (an inf), "Z_B" (a NaN) or "Z_C" (an
    inf), as ``problems.load`` names the part that holds it.
    """
    sys_ = problems.generate(problems.ArrayProblemSpec(ny=2, nx=2, ne=2, nb=2))
    target, value = {"the generator": (sys_.gen.blocks[1, 0], np.inf), "Z_B": (sys_.zb, np.nan),
                     "Z_C": (sys_.zc, np.inf)}[part]
    target.flat[1] = value
    return sys_


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
    "bool-shift": json_edit(lambda f: f.update(shift=True)),
    "string-k": json_edit(lambda f: f.update(k="3")),
    "null-border": json_edit(lambda f: f.update(nb=None)),
    "empty-grid": json_edit(lambda f: f.update(ny=0, nx=0)),
    "negative-border": json_edit(lambda f: f.update(nb=-1)),
    "nan-wavenumber": json_edit(lambda f: f.update(k=float("nan"))),
    "nonpositive-pitch": json_edit(lambda f: f.update(pitch=-1.0)),
    "negative-seed": json_edit(lambda f: f.update(seed=-1)),
    # the payload is little-endian row-major c128 whatever these say
    "big-endian": json_edit(lambda f: f.update(endian="big")),
    "complex64": json_edit(lambda f: f.update(dtype="c64")),
    "column-major": json_edit(lambda f: f.update(order="column-major")),
    "missing-dtype": json_edit(lambda f: f.pop("dtype")),
}

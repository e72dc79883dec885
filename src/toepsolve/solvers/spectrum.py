"""Randomized singular-value estimation of the preconditioned operator.

A randomized range finder with subspace (power) iterations samples the
dominant range of P^-1 Z using only the fast matvec and its adjoint;
the singular values of the projected sketch approximate the leading
singular values.  The adjoint (P^-1 Z)^H = Z^H P^-H is composed from the
adjoint operator and the adjoint preconditioner, which are of the same
types as the forward ones.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .bordered import BorderedOperator, bordered_matvec

__all__ = ["spectrum_estimate"]

# extra sketch columns beyond ``count``, and power iterations on the sketch
OVERSAMPLE = 10
POWER_ITERS = 2


def spectrum_estimate(
    op: BorderedOperator,
    p=None,
    count: int = 100,
    seed: int = 0,
) -> np.ndarray:
    """Top ``count`` singular values of P^-1 Z, in non-increasing order.

    ``p`` is a ``Preconditioner`` or None (P = I); its ``adjoint()`` gives P^-H.
    The sketch has ``min(count + OVERSAMPLE, dim)`` columns, so at
    ``count = dim`` it spans everything and the values are exact up to
    rounding.
    """
    n = op.dim
    if not 1 <= count <= n:
        raise ShapeError(f"count {count} outside 1..{n}")

    op_h = op.adjoint()
    p_h = None if p is None else p.adjoint()

    def forward(x):
        y = bordered_matvec(op, x)
        return y if p is None else p.apply(y)

    def adjoint(x):
        y = x if p_h is None else p_h.apply(x)
        return bordered_matvec(op_h, y)

    rng = np.random.default_rng(seed)
    samples = min(count + OVERSAMPLE, n)
    omega = (
        rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    ) / np.sqrt(2.0)

    q, _ = np.linalg.qr(forward(omega))
    for _ in range(POWER_ITERS):
        q, _ = np.linalg.qr(adjoint(q))
        q, _ = np.linalg.qr(forward(q))

    sketch = adjoint(q).conj().T  # rows: Q^H (P^-1 Z)
    values = np.linalg.svd(sketch, compute_uv=False)
    return values[:count]

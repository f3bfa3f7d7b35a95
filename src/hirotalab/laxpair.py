"""Assembly of the 3x3 Lax matrices and the zero-curvature compatibility check.

Jets of candidate solutions come from finite differences of a field source
fields(x, t) -> (q1, q2), never from symbolic differentiation, so the
convergence-order test absorbs the differencing error.  A jet is one
(3, 2) + shape array: q, q_x and q_xx, each with rows q1 and q2 as in
core.SampledField.values.  The matrices take batched jets and arrays of
zeta, so one ladder of the check is one pass at one (x, t): one source call
for every stencil centre of every spacing, then every U and V at once.

U = (i/2) zeta sigma - k1 Q and V are built from the potential Q = [[0, q1,
q2], [-q1*, 0, 0], [-q2*, 0, 0]] of each jet row, with sigma = diag(-1, 1, 1):

    W  = sigma (k1 Q^2 + Q_x)
    V2 = -(zeta^2 sigma + 2i k1 zeta Q + 2 k1 W)          (second-order dispersion)
    V3 = -(i/2) zeta^3 sigma + k1 zeta^2 Q - i k1 zeta W
         + k1 (2 k1^2 Q^3 + k1 [Q, Q_x] - Q_xx)           (third order)
    V  = a2 V2 + epsilon V3
"""

from __future__ import annotations

import numpy as np

from .core import SystemParams
from .residual import combine, stencil

__all__ = [
    "build_U",
    "build_V",
    "jet_at",
    "zero_curvature_residual",
    "default_zeta_samples",
]

_SIGMA = np.diag([-1.0, 1.0, 1.0])


def _potential(q: np.ndarray) -> np.ndarray:
    """Q = [[0, q1, q2], [-q1*, 0, 0], [-q2*, 0, 0]] of rows (q1, q2), as shape + (3, 3)."""
    out = np.zeros(q.shape[1:] + (3, 3), dtype=complex)
    out[..., 0, 1:] = np.moveaxis(q, 0, -1)
    out[..., 1:, 0] = -np.conj(out[..., 0, 1:])
    return out


def build_U(jet: np.ndarray, zeta: np.typing.ArrayLike, p: SystemParams) -> np.ndarray:
    """Space part (i/2) zeta sigma - k1 Q with the anti-Hermitian potential Q.

    jet is a (3, 2) + shape array from jet_at and zeta may be an array; shape
    and zeta's broadcast together and the result has their broadcast shape
    followed by (3, 3).
    """
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]
    return 0.5j * zeta * _SIGMA - p.k1 * _potential(jet[0])


def build_V(jet: np.ndarray, zeta: np.typing.ArrayLike, p: SystemParams) -> np.ndarray:
    """Time part a2 V2 + epsilon V3 of the module docstring; shapes broadcast as in build_U."""
    k1 = p.k1
    shape = np.broadcast_shapes(jet.shape[2:], np.shape(zeta)) + (3, 3)
    # numpy's array loops round complex products (fused multiply-add) unlike its
    # scalar math; raised to 1-d, one jet and zeta give the bits of a batch entry
    q, qx, qxx = (_potential(row) for row in jet.reshape((3, 2) + (jet.shape[2:] or (1,))))
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]
    w = _SIGMA @ (k1 * q @ q + qx)
    v2 = -(zeta**2 * _SIGMA + 2j * k1 * zeta * q + 2 * k1 * w)
    v3 = -0.5j * zeta**3 * _SIGMA + k1 * zeta**2 * q - 1j * k1 * zeta * w
    v3 += k1 * (2 * k1**2 * q @ q @ q + k1 * (q @ qx - qx @ q) - qxx)
    return (p.a2 * v2 + p.epsilon * v3).reshape(shape)


def jet_at(
    fields,
    x: float | np.ndarray,
    t: float | np.ndarray,
    h: float | np.ndarray,
    order: int = 2,
) -> np.ndarray:
    """Jet of the field source fields(x, t) -> (q1, q2) at (x, t), differenced in x.

    Returns one (3, 2) + shape array: q, q_x and q_xx, each with rows q1 and
    q2.  x and t may be arrays of centres and h an array of spacings, all
    broadcast together to that shape.  All centres go through one call of
    fields; a pointwise source (the evaluator) gives each its own call's bits.
    Every spacing must be positive and finite (ValueError otherwise).
    """
    h = np.asarray(h, dtype=float)
    if not np.all((h > 0) & np.isfinite(h)):
        raise ValueError("h must be positive and finite")
    (w1, div1), (w2, div2) = stencil(order, 1), stencil(order, 2)
    mid = len(w1) // 2
    xs = np.asarray(x, dtype=float)[..., None] + h[..., None] * np.arange(-mid, mid + 1)
    q = np.asarray(fields(xs, np.asarray(t, dtype=float)[..., None]))
    taps = np.moveaxis(q, -1, 0)
    return np.stack([q[..., mid], combine(w1, div1 * h, taps), combine(w2, div2 * h**2, taps)])


def zero_curvature_residual(
    fields,
    p: SystemParams,
    zeta: np.typing.ArrayLike,
    x: float,
    t: float,
    h: float | np.typing.ArrayLike,
    order: int = 2,
) -> np.ndarray:
    """U_t - V_x + [U, V] on the field source fields(x, t), by finite differences.

    h is one spacing or an array of them, such as a ladder, and zeta one
    spectral parameter or an array of them; the result has shape h.shape +
    zeta.shape + (3, 3).  Every spacing goes through one source call.
    For exact solutions the sup norm decreases at the stencil's nominal
    order under h-refinement.
    """
    h = np.asarray(h, dtype=float)
    weights, divisor = stencil(order, 1)
    mid = len(weights) // 2
    offsets = np.array([o - mid for o, c in enumerate(weights) if c])
    nonzero = [c for c in weights if c]
    # centres along the first axis: the time stencil, then the space
    # stencil, then (x, t) itself
    step = offsets.reshape((-1,) + (1,) * h.ndim) * h
    same = np.ones_like(step)
    xs = np.concatenate([x * same, x + step, x * same[:1]])
    ts = np.concatenate([t + step, t * same, t * same[:1]])
    batch = jet_at(fields, xs, ts, h, order)
    zeta = np.asarray(zeta, dtype=complex)
    # each centre's jets broadcast against zeta's axes
    jets = batch.reshape(batch.shape + (1,) * zeta.ndim)
    u, v = build_U(jets, zeta, p), build_V(jets, zeta, p)
    scale = (divisor * h).reshape(h.shape + (1,) * (zeta.ndim + 2))
    u_t = combine(nonzero, scale, u[: len(nonzero)])
    v_x = combine(nonzero, scale, v[len(nonzero) : -1])
    return u_t - v_x + u[-1] @ v[-1] - v[-1] @ u[-1]


def default_zeta_samples() -> list[complex]:
    """Eight points on |zeta| = 0.8 plus 0.3 + 0.2i and 1.5 (ten in total)."""
    ring = [0.8 * np.exp(2j * np.pi * k / 8) for k in range(8)]
    return [complex(z) for z in ring] + [0.3 + 0.2j, 1.5 + 0.0j]

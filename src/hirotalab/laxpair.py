"""Assembly of the 3x3 Lax matrices and the zero-curvature compatibility check.

Jets of candidate solutions come from finite differences of the analytic
evaluator, never from symbolic differentiation, so the convergence-order
test absorbs the differencing error.  A jet is one (3, 2) + shape array:
q, q_x and q_xx, each with rows q1 and q2 as in core.SampledField.values.
The matrices take batched jets and arrays of zeta, so one ladder of the
check is one pass at one (x, t): one evaluator call for every stencil
centre of every spacing, then every U and V at once.
"""

from __future__ import annotations

import numpy as np

from .core import SpectralData, SystemParams
from .nsoliton import fields_batch
from .residual import combine, stencil

__all__ = [
    "build_U",
    "build_V",
    "jet_at",
    "zero_curvature_residual",
    "default_zeta_samples",
]

_SIGMA_DIAG = np.array([-1.0, 1.0, 1.0])


def _matrix(shape: tuple, rows) -> np.ndarray:
    """Complex shape + (3, 3) stack from three rows of entries of that shape or scalars."""
    out = np.empty(shape + (3, 3), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def build_U(jet: np.ndarray, zeta: np.typing.ArrayLike, p: SystemParams) -> np.ndarray:
    """Space part (i/2) zeta sigma - k1 Q with the antisymmetric potential Q.

    jet is a (3, 2) + shape array from jet_at and zeta may be an array; shape
    and zeta's broadcast together and the result has their broadcast shape
    followed by (3, 3).
    """
    q1, q2 = jet[0]
    mat = _matrix(np.shape(q1), [[0.0, q1, q2], [-np.conj(q1), 0.0, 0.0], [-np.conj(q2), 0.0, 0.0]])
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]
    return 0.5j * zeta * np.diag(_SIGMA_DIAG).astype(complex) - p.k1 * mat


def build_V(jet: np.ndarray, zeta: np.typing.ArrayLike, p: SystemParams) -> np.ndarray:
    """Time part, cubic in zeta, with all nine zeroth-order entries.

    The (2,3) zeroth-order entry uses the conjugated first derivative of q1,
    which is what the compatibility condition forces; with it the whole
    zeta^0 block closes consistently.  Shapes broadcast as in build_U.
    """
    eps, k1, a2 = p.epsilon, p.k1, p.a2
    shape = np.broadcast_shapes(jet.shape[2:], np.shape(zeta)) + (3, 3)
    # numpy's array loops round complex products (fused multiply-add) unlike its
    # scalar math; raised to 1-d, one jet and zeta give the bits of a batch entry
    q1, q2, q1x, q2x, q1xx, q2xx = jet.reshape((6,) + (jet.shape[2:] or (1,)))
    c1, c2 = np.conj(q1), np.conj(q2)
    c1x, c2x = np.conj(q1x), np.conj(q2x)
    dens = (q1 * c1 + q2 * c2).real
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]

    cubic = 0.5j * eps * zeta**3 * np.diag([1.0, -1.0, -1.0]).astype(complex)

    quad = zeta**2 * _matrix(
        dens.shape,
        [
            [a2, eps * k1 * q1, eps * k1 * q2],
            [-eps * k1 * c1, -a2, 0.0],
            [-eps * k1 * c2, 0.0, -a2],
        ],
    )

    lin = zeta * _matrix(
        dens.shape,
        [
            [
                -1j * eps * k1**2 * dens,
                1j * eps * k1 * q1x - 2j * a2 * k1 * q1,
                1j * eps * k1 * q2x - 2j * a2 * k1 * q2,
            ],
            [
                1j * eps * k1 * c1x + 2j * a2 * k1 * c1,
                1j * eps * k1**2 * q1 * c1,
                1j * eps * k1**2 * c1 * q2,
            ],
            [
                1j * eps * k1 * c2x + 2j * a2 * k1 * c2,
                1j * eps * k1**2 * c2 * q1,
                1j * eps * k1**2 * q2 * c2,
            ],
        ],
    )

    b = np.empty((3, 3) + dens.shape, dtype=complex)
    b[0, 0] = -2 * a2 * k1**2 * dens - eps * k1**2 * (q1 * c1x - c1 * q1x + q2 * c2x - c2 * q2x)
    b[0, 1] = -eps * k1 * q1xx + 2 * a2 * k1 * q1x - 2 * eps * k1**3 * q1 * dens
    b[0, 2] = -eps * k1 * q2xx + 2 * a2 * k1 * q2x - 2 * eps * k1**3 * q2 * dens
    b[1, 0] = eps * k1 * np.conj(q1xx) + 2 * a2 * k1 * c1x + 2 * eps * k1**3 * c1 * dens
    b[1, 1] = -eps * k1**2 * (c1 * q1x - c1x * q1) + 2 * a2 * k1**2 * q1 * c1
    b[1, 2] = -eps * k1**2 * (c1 * q2x - c1x * q2) + 2 * a2 * k1**2 * c1 * q2
    b[2, 0] = eps * k1 * np.conj(q2xx) + 2 * a2 * k1 * c2x + 2 * eps * k1**3 * c2 * dens
    b[2, 1] = -eps * k1**2 * (c2 * q1x - q1 * c2x) + 2 * a2 * k1**2 * c2 * q1
    b[2, 2] = -eps * k1**2 * (c2 * q2x - c2x * q2) + 2 * a2 * k1**2 * q2 * c2

    return (cubic + quad + lin + np.moveaxis(b, (0, 1), (-2, -1))).reshape(shape)


def jet_at(
    data: SpectralData,
    p: SystemParams,
    x: float | np.ndarray,
    t: float | np.ndarray,
    h: float | np.ndarray,
    order: int = 2,
) -> np.ndarray:
    """Jet of the analytic solution at (x, t) by central differences in x.

    Returns one (3, 2) + shape array: q, q_x and q_xx, each with rows q1 and
    q2.  x and t may be arrays of centres and h an array of spacings, all
    broadcast together to that shape.  All centres go through one call of
    the evaluator, and each centre's jet is bit for bit the one its own call
    gives.
    """
    (w1, div1), (w2, div2) = stencil(order, 1), stencil(order, 2)
    mid = len(w1) // 2
    h = np.asarray(h, dtype=float)
    xs = np.asarray(x, dtype=float)[..., None] + h[..., None] * np.arange(-mid, mid + 1)
    q = fields_batch(data, p, xs, np.asarray(t, dtype=float)[..., None])
    taps = np.moveaxis(q, -1, 0)
    return np.stack([q[..., mid], combine(w1, div1 * h, taps), combine(w2, div2 * h**2, taps)])


def zero_curvature_residual(
    data: SpectralData,
    p: SystemParams,
    zeta: np.typing.ArrayLike,
    x: float,
    t: float,
    h: float | np.typing.ArrayLike,
    order: int = 2,
) -> np.ndarray:
    """U_t - V_x + [U, V] on the analytic solution, by finite differences.

    h is one spacing or an array of them, such as a ladder, and zeta one
    spectral parameter or an array of them; the result has shape h.shape +
    zeta.shape + (3, 3).  Every spacing goes through one evaluator call.
    For exact solutions the sup norm decreases at the stencil's nominal
    order under h-refinement.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("h must be positive")
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
    batch = jet_at(data, p, xs, ts, h, order)
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

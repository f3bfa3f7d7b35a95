"""General N-soliton evaluation and the one-soliton closed form.

The N-soliton fields come from the reflectionless Riemann-Hilbert problem,
whose solution normalized at infinity is a product of N elementary dressing
factors G_N(zeta) ... G_1(zeta) (Zakharov & Shabat 1979; Shchesnovich &
Yang 2003).  Each factor is a rank-one update, made in place, so the fields
need no linear solve: the only division is one real reciprocal of each
dressed vector's squared norm.  Every evolved vector is one unit phasor
e^(i Im theta) times real exponentials scaled in log space by its largest
component, so no exponential overflows and far-field values decay to exact
zeros.  fields_batch writes both components into one (2, ...) array.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SpectralData, SpectralDatum, SystemParams, phase

__all__ = [
    "fields_batch",
    "one_soliton",
]

# Smallest |w_k|^2 / |v_k|^2 the dressing may leave.  Each factor G_j(zeta_k)
# is normal with singular values 1 and |zeta_k - zeta_j| / |zeta_k - conj(zeta_j)|,
# so the ratio plays the role of 1 / cond.  It is smallest for a nearly
# coincident pair with parallel vectors, (|delta zeta| / (2 Im zeta))^2, and
# 1e-14 sits where a condition number of 1e14 on the bilinear (Cauchy-like)
# system did.
DRESSING_LIMIT = 1e-14
# Points per pass of the dressing.  It bounds the temporaries of one call,
# about 6 N + 6 complex values per point: w_j and its dual per earlier datum,
# w_k, and the (3, m) and (m,) buffers of its rank-one updates.
CHUNK = 2048


def _evolved_vector(d: SpectralDatum, p: SystemParams, x, t) -> np.ndarray:
    """(alpha e^-theta, beta e^theta, gamma e^theta) / e^s as one (3, ...) array.

    s is the log of the largest component's modulus, so every entry has
    modulus at most 1.  Each entry is a real factor e^(log|.| -+ Re theta - s),
    at most 1, times one unit phasor e^(i Im theta) or its conjugate.  A zero
    entry stays exactly 0: it is never formed as 0 * e^(+large).
    """
    th = phase(d, p, x, t)
    bg = max(abs(d.beta), abs(d.gamma))
    log_a = math.log(abs(d.alpha)) if d.alpha else -math.inf
    log_bg = math.log(bg) if bg else -math.inf
    s = np.maximum(log_a - th.real, log_bg + th.real)
    turn = np.empty(th.shape, dtype=complex)  # e^(i Im theta)
    np.cos(th.imag, out=turn.real)
    np.sin(th.imag, out=turn.imag)
    v = np.zeros((3,) + th.shape, dtype=complex)
    if d.alpha:
        np.conjugate(turn, out=v[0])
        v[0] *= (d.alpha / abs(d.alpha)) * np.exp(log_a - th.real - s)
    if bg:
        turn *= np.exp(log_bg + th.real - s)
        np.multiply(d.beta / bg, turn, out=v[1])
        np.multiply(d.gamma / bg, turn, out=v[2])
    return v


def fields_batch(
    data: SpectralData, p: SystemParams, x: np.ndarray | float, t: np.ndarray | float
) -> np.ndarray:
    """(q1, q2) at the points (x, t), broadcast together, via the dressing product.

    Returns one (2,) + broadcast-shape array whose rows are q1 and q2.
    Datum k's evolved vector v_k is dressed by the earlier factors,
    w_k = G_{k-1}(zeta_k) ... G_1(zeta_k) v_k, one rank-one update
    w <- w - c_kj (w_j^H w / |w_j|^2) w_j per pair with
    c_kj = (zeta_j - conj(zeta_j)) / (zeta_k - conj(zeta_j)).  Then
    q_{1,2} = -(2 / k1) sum_k Im(zeta_k) w_k[0] conj(w_k[1,2]) / |w_k|^2.
    Every step is pointwise, so a point's value does not depend on the
    other points of the batch.

    Raises ArithmeticError, naming (x, t), at the first point where
    |w_k|^2 / |v_k|^2 falls below DRESSING_LIMIT or an output is not finite.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    xs, ts = x.ravel(), t.ravel()
    q = np.empty((2, xs.size), dtype=complex)
    for lo in range(0, xs.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        _dress(data, p, xs[part], ts[part], q[:, part])
    return q.reshape((2,) + x.shape)


def _dress(data: SpectralData, p: SystemParams, x: np.ndarray, t: np.ndarray, q: np.ndarray):
    """Write (q1, q2) at the points (x, t), of shape (m,), into the (2, m) q."""
    q.fill(0.0)
    if len(data) > 1:  # one datum makes no rank-one update
        prod, dot = np.empty((3, x.size), dtype=complex), np.empty(x.size, dtype=complex)
    dressed = []  # (zeta_j, w_j, conj(w_j) / |w_j|^2) of the earlier data
    for k, d in enumerate(data):
        zk = complex(d.zeta)
        w = _evolved_vector(d, p, x, t)
        if dressed:
            v_norm = _squared_norm(w)
            for zj, wj, dual in dressed:
                np.multiply(dual, w, out=prod)
                prod.sum(axis=0, out=dot)
                dot *= (zj - zj.conjugate()) / (zk - zj.conjugate())
                np.multiply(wj, dot, out=prod)
                w -= prod
        norm = _squared_norm(w)
        if dressed:
            _check(~(norm / v_norm >= DRESSING_LIMIT), x, t)
        inv = 1.0 / norm
        weight = w[0] * ((2.0 * zk.imag / p.k1) * inv)
        q[0] -= weight * w[1].conj()
        q[1] -= weight * w[2].conj()
        if k + 1 < len(data):
            dressed.append((zk, w, w.conj() * inv))
    _check(~np.isfinite(q).all(axis=0), x, t)


def _squared_norm(w: np.ndarray) -> np.ndarray:
    return (w.real**2 + w.imag**2).sum(axis=0)


def _check(bad: np.ndarray, x: np.ndarray, t: np.ndarray) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"dressing is numerically singular at (x, t) = ({float(x[i])}, {float(t[i])})"
        )


def one_soliton(d: SpectralDatum, p: SystemParams, x, t):
    """Closed-form single-soliton fields; requires the normalization alpha = 1.

    ValueError for alpha != 1, and for beta = gamma = 0, which makes the
    soliton identically zero (xi = -inf).

    q1 = -(beta* b / k1) e^{-xi} e^{-theta + theta*} sech(theta + theta* + xi)
    with b = Im zeta, xi = ln(|beta|^2 + |gamma|^2) / 2, and q2 the same with
    gamma*.  Accepts scalar or array x, t.
    """
    if d.alpha != 1:
        raise ValueError(f"closed form requires alpha = 1, got {d.alpha}")
    weight = abs(d.beta) ** 2 + abs(d.gamma) ** 2
    if weight == 0.0:
        raise ValueError("beta and gamma cannot both vanish")
    xi = 0.5 * np.log(weight)
    b = complex(d.zeta).imag
    th = phase(d, p, x, t)
    carrier = np.exp(-2j * th.imag)  # e^{-theta+theta*} is a pure phase
    y = 2.0 * th.real + xi
    with np.errstate(over="ignore"):
        envelope = 1.0 / np.cosh(y)
    common = -(b / p.k1) * np.exp(-xi) * carrier * envelope
    return np.conj(d.beta) * common, np.conj(d.gamma) * common

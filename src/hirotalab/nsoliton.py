"""General N-soliton evaluation and the one-soliton closed form.

The N-soliton fields are bilinear sums over an N x N interaction matrix.
Direct transcription of that matrix overflows once |Re(phase)| grows past
~350, so the evaluator always works with an exactly rescaled system: row k
and column j of the matrix are divided by exp(|Re theta_k| + |Re theta_j|)
and the same factors are absorbed into the numerator vectors.  Far-field
values then underflow gracefully to zero instead of producing NaN.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ComplexField,
    Grid1D,
    SpectralData,
    SpectralDatum,
    SystemParams,
    phase,
)

__all__ = [
    "SingularMatrixError",
    "AlphaNotOneError",
    "ZeroBetaGammaError",
    "fields_batch",
    "evaluate",
    "one_soliton",
    "sample",
    "envelope_velocity",
    "peak_position",
    "peak_velocity",
]

CONDITION_LIMIT = 1e14


class SingularMatrixError(ArithmeticError):
    """The interaction matrix is numerically singular at an evaluation point."""

    def __init__(self, x: float, t: float) -> None:
        self.x, self.t = x, t
        super().__init__(f"interaction matrix is singular at (x, t) = ({x}, {t})")


class AlphaNotOneError(ValueError):
    """The one-soliton closed form assumes the normalization alpha = 1."""


class ZeroBetaGammaError(ValueError):
    """beta = gamma = 0 makes the one-soliton identically zero (xi = -inf)."""


def _phases(data: SpectralData, p: SystemParams, x, t) -> np.ndarray:
    """Stack of phase exponents, shape (N,) + broadcast shape of (x, t)."""
    return np.stack([np.asarray(phase(d, p, x, t)) for d in data])


def fields_batch(data: SpectralData, p: SystemParams, x: np.ndarray, t: float):
    """(q1, q2) arrays over the points x at time t via the rescaled solve."""
    x = np.asarray(x, dtype=float)
    n = len(data)
    m = x.size
    if n == 0:
        zeros = np.zeros(m, dtype=complex)
        return zeros, zeros.copy()
    th = _phases(data, p, x, t)  # (n, m)
    c = np.abs(th.real)  # per-index rescaling exponents
    alpha = np.array([d.alpha for d in data])
    beta = np.array([d.beta for d in data])
    gamma = np.array([d.gamma for d in data])
    zetas = data.zetas()

    gram_a = np.conj(alpha)[:, None] * alpha[None, :]
    gram_bg = np.conj(beta)[:, None] * beta[None, :] + np.conj(gamma)[:, None] * gamma[None, :]
    denom = zetas[None, :] - np.conj(zetas)[:, None]
    # scaled matrix, built in place: every exponential has non-positive real part
    msc = -np.conj(th)[:, None, :] - th[None, :, :]
    msc -= c[:, None, :]
    msc -= c[None, :, :]
    np.multiply(gram_a[:, :, None], np.exp(msc, out=msc), out=msc)
    e_plus = np.conj(th)[:, None, :] + th[None, :, :]
    e_plus -= c[:, None, :]
    e_plus -= c[None, :, :]
    np.multiply(gram_bg[:, :, None], np.exp(e_plus, out=e_plus), out=e_plus)
    msc += e_plus
    del e_plus
    msc /= denom[:, :, None]
    msc = np.moveaxis(msc, 2, 0)  # (m, n, n)

    # ||.||_2 <= ||.||_F, so the Frobenius condition number bounds the 2-norm
    # one.  Near the limit both carry rounding noise of a few percent, so the
    # screen clears only points at half the limit; the rest (NaN included) go
    # through the SVD, which decides them as the only guard did before.
    suspect = np.flatnonzero(~(np.linalg.cond(msc, "fro") <= CONDITION_LIMIT / 2))
    if suspect.size:
        cond = np.linalg.cond(msc[suspect])
        if not np.all(np.isfinite(cond)) or np.any(cond > CONDITION_LIMIT):
            bad = suspect[int(np.argmax(np.where(np.isfinite(cond), cond, np.inf)))]
            raise SingularMatrixError(float(x.flat[bad]), t)

    u = alpha[:, None] * np.exp(-th - c)  # (n, m)
    vb = np.conj(beta)[:, None] * np.exp(np.conj(th) - c)
    vg = np.conj(gamma)[:, None] * np.exp(np.conj(th) - c)
    # q = (i/k1) u^T M^{-1} v  via one solve with M^T per point
    try:
        w = np.linalg.solve(np.swapaxes(msc, 1, 2), np.moveaxis(u, 1, 0)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(float(x.flat[0]), t) from exc
    w = np.moveaxis(w, 0, 1)  # (n, m)
    q1 = (1j / p.k1) * np.sum(w * vb, axis=0)
    q2 = (1j / p.k1) * np.sum(w * vg, axis=0)
    return q1, q2


def evaluate(data: SpectralData, p: SystemParams, x: float, t: float) -> tuple[complex, complex]:
    """Pointwise N-soliton fields (q1, q2) at (x, t)."""
    q1, q2 = fields_batch(data, p, np.array([float(x)]), float(t))
    return complex(q1[0]), complex(q2[0])


def one_soliton(d: SpectralDatum, p: SystemParams, x, t):
    """Closed-form single-soliton fields; requires the normalization alpha = 1.

    q1 = -(beta* b / k1) e^{-xi} e^{-theta + theta*} sech(theta + theta* + xi)
    with b = Im zeta, xi = ln(|beta|^2 + |gamma|^2) / 2, and q2 the same with
    gamma*.  Accepts scalar or array x, t.
    """
    if d.alpha != 1:
        raise AlphaNotOneError(f"closed form requires alpha = 1, got {d.alpha}")
    weight = abs(d.beta) ** 2 + abs(d.gamma) ** 2
    if weight == 0.0:
        raise ZeroBetaGammaError("beta and gamma cannot both vanish")
    xi = 0.5 * np.log(weight)
    b = complex(d.zeta).imag
    th = phase(d, p, x, t)
    carrier = np.exp(-2j * th.imag)  # e^{-theta+theta*} is a pure phase
    y = 2.0 * th.real + xi
    with np.errstate(over="ignore"):
        envelope = 1.0 / np.cosh(y)
    common = -(b / p.k1) * np.exp(-xi) * carrier * envelope
    return np.conj(d.beta) * common, np.conj(d.gamma) * common


def sample(
    data: SpectralData, p: SystemParams, grid: Grid1D, times
) -> list[tuple[ComplexField, ComplexField]]:
    """Field pairs on the grid, one per requested time, via the batched solve."""
    xs = grid.points()
    out = []
    for t in times:
        q1, q2 = fields_batch(data, p, xs, float(t))
        out.append((ComplexField(grid, float(t), q1), ComplexField(grid, float(t), q2)))
    return out


def envelope_velocity(d: SpectralDatum, p: SystemParams) -> float:
    """Closed-form speed of the one-soliton modulus envelope.

    For zeta = a + i b the envelope argument is -b x + c t with
    c = (3 a^2 b - b^3) eps - 2 a2 (a^2 - b^2), so the peak travels at c / b.
    """
    a, b = complex(d.zeta).real, complex(d.zeta).imag
    c = (3 * a * a * b - b**3) * p.epsilon - 2 * p.a2 * (a * a - b * b)
    return c / b


def _refine_peak(xs: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Parabolic refinement of the grid maximum; returns (x_peak, value)."""
    i = int(np.argmax(vals))
    if i == 0 or i == len(xs) - 1:
        return float(xs[i]), float(vals[i])
    ym, y0, yp = vals[i - 1], vals[i], vals[i + 1]
    denom = ym - 2 * y0 + yp
    if denom == 0:
        return float(xs[i]), float(y0)
    shift = 0.5 * (ym - yp) / denom
    h = xs[1] - xs[0]
    value = y0 - 0.25 * (ym - yp) * shift
    return float(xs[i] + shift * h), float(value)


def peak_position(data: SpectralData, p: SystemParams, grid: Grid1D, t: float) -> float:
    """Location of the maximum of sqrt(|q1|^2 + |q2|^2) at time t."""
    q1, q2 = fields_batch(data, p, grid.points(), t)
    mod = np.sqrt(np.abs(q1) ** 2 + np.abs(q2) ** 2)
    pos, _ = _refine_peak(grid.points(), mod)
    return pos


def peak_velocity(
    data: SpectralData, p: SystemParams, grid: Grid1D, t0: float, t1: float
) -> float:
    """Envelope speed estimated by tracking the modulus peak from t0 to t1."""
    if t1 == t0:
        raise ValueError("need two distinct times")
    x0 = peak_position(data, p, grid, t0)
    x1 = peak_position(data, p, grid, t1)
    return (x1 - x0) / (t1 - t0)

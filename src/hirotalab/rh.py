"""Reflectionless Riemann-Hilbert factors, kernel checks, reconstruction,
and direct scattering.

The sectionally analytic factors are assembled from the evolved eigenvector
outer products by solving the bilinear (Cauchy) system, deliberately not
reusing the dressing product of the soliton evaluator: the two routes share
only the phase exponent, which makes their agreement (reconstruct vs. the
evaluator) a meaningful cross-check.

A joint row/column rescaling of the interaction matrix keeps every
exponential at non-positive real exponent and leaves the factors unchanged;
the evaluator bounds its exponentials its own way, by dividing each evolved
vector by its largest component.

The factors take one spectral parameter (result 3x3) or an array of them
(result zeta.shape + (3, 3)) and build the scaled vectors once per call, so
a check of many zeta at one (x, t) is one pass: one stacked solve.

Direct scattering integrates the spectral ODE of the sampled potentials by
RK4.  A real zeta is integrated in the interaction picture, where the free
phase e^{+-i zeta x} is exact and only the potential's step error is left;
off the real axis that phase grows like e^{Im zeta |x|}, so the free part
stays in the RK4 coefficient there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexField, SpectralData, SystemParams, phase

__all__ = [
    "PoleHitError",
    "NonDecayingTailsError",
    "ScatteringStepError",
    "KernelReport",
    "rh_plus",
    "rh_minus",
    "rh_plus_order1",
    "kernel_report",
    "reconstruct",
    "check_phase_step",
    "direct_scattering",
]

POLE_RADIUS = 1e-12
TAIL_THRESHOLD = 1e-5
PHASE_STEP_LIMIT = 0.1
# RK4 steps multiplied together per block in direct_scattering
FOLD_BLOCK = 1024


class PoleHitError(ZeroDivisionError):
    """Evaluation point lies inside the exclusion radius of a pole."""

    def __init__(self, zeta: complex, pole: complex) -> None:
        self.zeta, self.pole = zeta, pole
        super().__init__(f"zeta = {zeta} is within {POLE_RADIUS} of the pole {pole}")


class NonDecayingTailsError(ValueError):
    """Field magnitudes at the grid ends are too large for scattering."""

    def __init__(self, magnitude: float, threshold: float) -> None:
        self.magnitude = magnitude
        super().__init__(
            f"boundary field magnitude {magnitude:.3g} exceeds {threshold:.3g}; widen the grid"
        )


class ScatteringStepError(ValueError):
    """Grid spacing is too coarse for the requested spectral parameter."""

    def __init__(self, h: float, zeta: complex) -> None:
        super().__init__(
            f"need h * |zeta| <= {PHASE_STEP_LIMIT} for phase accuracy, got "
            f"{h * abs(zeta):.3g}"
        )


@dataclass(frozen=True)
class KernelReport:
    """Relative kernel norms per datum: right kernel of the upper factor at
    zeta_j and left kernel of the lower factor at zeta_j*."""

    right_norms: tuple[float, ...]
    left_norms: tuple[float, ...]

    @property
    def max_norm(self) -> float:
        # np.max, unlike max, propagates a NaN norm
        return float(np.max(self.right_norms + self.left_norms, initial=0.0))


def _scaled_vectors(data: SpectralData, p: SystemParams, x: float, t: float):
    """Columns v_k, rows vhat_j, and the interaction matrix, jointly rescaled.

    Scaling row k and column j by exp(-|Re theta_k| - |Re theta_j|) leaves
    every combination v_k (M^-1)_kj vhat_j invariant while keeping all
    exponentials at non-positive real exponent.
    """
    th = np.array([phase(d, p, x, t) for d in data])
    c = np.abs(th.real)
    vec0 = np.stack([d.vector() for d in data])  # (n, 3) constant vectors
    expo = np.stack([-th - c, th - c, th - c], axis=1)  # sigma-signed evolution
    v = vec0 * np.exp(expo)  # (n, 3), scaled columns v'_k
    vhat = np.conj(v)  # (n, 3), scaled rows vhat'_j = (v_j)^dagger e^{-c_j}
    zetas = data.zetas()
    denom = zetas[None, :] - np.conj(zetas)[:, None]
    gram = vhat @ v.T  # (vhat'_k . v'_j)
    m_scaled = gram / denom
    return v, vhat, m_scaled, zetas


def _check_poles(zeta: np.ndarray, poles: np.ndarray) -> None:
    """Raise PoleHitError for the first zeta within POLE_RADIUS of a pole."""
    dist = np.abs(zeta[..., None] - poles).reshape(-1, len(poles))
    hit = dist.min(axis=1) < POLE_RADIUS
    if hit.any():
        i = int(np.argmax(hit))
        raise PoleHitError(complex(zeta.flat[i]), complex(poles[dist[i].argmin()]))


def rh_plus(zeta, data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """Upper-half-plane factor: identity minus the pole sum over zeta_j*."""
    zeta = np.asarray(zeta, dtype=complex)
    if len(data) == 0:
        return np.tile(np.eye(3, dtype=complex), zeta.shape + (1, 1))
    v, vhat, m_scaled, zetas = _scaled_vectors(data, p, x, t)
    poles = np.conj(zetas)
    _check_poles(zeta, poles)
    y = vhat / (zeta[..., None] - poles)[..., None]
    z = np.linalg.solve(m_scaled, y)
    return np.eye(3, dtype=complex) - v.T @ z


def rh_minus(zeta, data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """Lower-half-plane factor: identity plus the pole sum over zeta_k."""
    zeta = np.asarray(zeta, dtype=complex)
    if len(data) == 0:
        return np.tile(np.eye(3, dtype=complex), zeta.shape + (1, 1))
    v, vhat, m_scaled, zetas = _scaled_vectors(data, p, x, t)
    _check_poles(zeta, zetas)
    z = np.linalg.solve(m_scaled, vhat)
    return np.eye(3, dtype=complex) + (v.T / (zeta[..., None, None] - zetas)) @ z


def rh_plus_order1(data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """1/zeta coefficient of the upper factor's large-zeta expansion."""
    if len(data) == 0:
        return np.zeros((3, 3), dtype=complex)
    v, vhat, m_scaled, _ = _scaled_vectors(data, p, x, t)
    z = np.linalg.solve(m_scaled, vhat)
    return -(v.T @ z)


def kernel_report(data: SpectralData, p: SystemParams, x: float, t: float) -> KernelReport:
    """Relative norms of the factor-kernel conditions at every eigenvalue."""
    if len(data) == 0:
        return KernelReport((), ())
    v, vhat, _, zetas = _scaled_vectors(data, p, x, t)
    plus = rh_plus(zetas, data, p, x, t)
    minus = rh_minus(np.conj(zetas), data, p, x, t)
    right = [np.linalg.norm(p1 @ vj) / np.linalg.norm(vj) for p1, vj in zip(plus, v)]
    left = [np.linalg.norm(wj @ p2) / np.linalg.norm(wj) for p2, wj in zip(minus, vhat)]
    return KernelReport(tuple(map(float, right)), tuple(map(float, left)))


def reconstruct(data: SpectralData, p: SystemParams, x: float, t: float) -> tuple[complex, complex]:
    """Potentials from the expansion coefficient: (-i/k1) times its (1,2) and
    (1,3) entries."""
    p1 = rh_plus_order1(data, p, x, t)
    return (
        complex(-1j / p.k1 * p1[0, 1]),
        complex(-1j / p.k1 * p1[0, 2]),
    )


def check_phase_step(h: float, zeta: complex) -> None:
    """Raise ScatteringStepError unless a scattering grid of spacing h
    resolves the phase of zeta."""
    if not h * abs(zeta) <= PHASE_STEP_LIMIT:
        raise ScatteringStepError(h, zeta)


def _free_factor(zeta: complex, x: float) -> np.ndarray:
    """Diagonal free-evolution factor exp((i/2) zeta sigma x)."""
    return np.diag(np.exp(0.5j * zeta * np.array([-1.0, 1.0, 1.0]) * x))


def _matmul33(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a[..., k] @ b[..., k] of 3x3 matrices stored as (3, 3, k) stacks."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _rk4_step_matrices(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, s: float) -> np.ndarray:
    """RK4 propagators of psi' = a psi over k steps of length s.

    a0, a1, a2 are (3, 3, k) stacks of the coefficient at the start, middle
    and end of each step; the stages are those of RK4 applied to the identity.
    """
    eye = np.eye(3)[:, :, None]
    k1 = a0
    k2 = _matmul33(a1, eye + 0.5 * s * k1)
    k3 = _matmul33(a1, eye + 0.5 * s * k2)
    k4 = _matmul33(a2, eye + s * k3)
    return eye + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fold(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[..., k-1] @ ... @ steps[..., 0] by pairwise products."""
    while steps.shape[2] > 1:
        k = steps.shape[2]
        paired = _matmul33(steps[:, :, 1::2], steps[:, :, 0 : k - 1 : 2])
        if k % 2:
            paired = np.concatenate([paired, steps[:, :, -1:]], axis=2)
        steps = paired
    return steps[:, :, 0]


def direct_scattering(
    q1: ComplexField,
    q2: ComplexField,
    zeta: complex,
    p: SystemParams,
    tail_threshold: float = TAIL_THRESHOLD,
) -> np.ndarray:
    """Scattering matrix of the sampled potentials at spectral parameter zeta.

    Integrates the 3x3 spectral ODE psi' = ((i/2) zeta sigma + Q) psi,
    sigma = diag(-1, 1, 1), over the grid and reads off S at the right end.
    Classical RK4 over node pairs, so grid values supply the exact
    midpoints; accuracy is O(h^4).  An odd interval count ends with one
    step of h whose midpoint coefficient is the average of its two end
    nodes.

    A real zeta takes the interaction picture phi = exp(-(i/2) zeta sigma x)
    psi, whose coefficient is the potential alone, with zero diagonal and
    off-diagonal entries -k1 q_{1,2} e^{i zeta x} and k1 conj(q_{1,2})
    e^{-i zeta x}: the free phase is exact, phi(x_min) = I and
    S = phi(x_max), so a zero potential gives exactly I.  A zeta off the
    real axis keeps the free part in the coefficient, since e^{i zeta x}
    grows like e^{Im zeta |x|} there: psi starts at the free factor
    exp((i/2) zeta sigma x_min) and S = exp(-(i/2) zeta sigma x_max) psi.
    Only the first column of that S is meaningful; its (1,1) entry extends
    analytically to the upper half plane.

    The ODE is linear, so each RK4 step is a fixed matrix polynomial in the
    coefficients a0, a1, a2 at its start, middle and end node (step s):
    I + s/6 (a0 + 4a1 + a2) + s^2/6 (a1a0 + a1^2 + a2a1)
    + s^3/12 (a1^2a0 + a2a1^2) + s^4/24 a2a1^2a0.  All step matrices of a
    block of FOLD_BLOCK steps are built at once and multiplied together by
    pairwise (log-depth) products, later steps on the left; the block
    products are then applied in order.  Blocks bound the memory: the
    coefficient and step matrices of one block exist at a time, however
    long the grid is; only a real zeta's phase-multiplied potentials span
    the whole grid.
    """
    if q1.grid != q2.grid:
        raise ValueError("fields must share one grid")
    grid = q1.grid
    h = grid.spacing
    check_phase_step(h, zeta)
    edge = max(
        abs(q1.values[0]), abs(q1.values[-1]), abs(q2.values[0]), abs(q2.values[-1])
    )
    if edge > tail_threshold:
        raise NonDecayingTailsError(float(edge), tail_threshold)

    v1, v2 = q1.values, q2.values
    real = np.imag(zeta) == 0
    if real:
        # interaction picture: the potentials times e^{i zeta x}, once per call
        wave = np.exp(1j * np.real(zeta) * grid.points())
        v1, v2 = v1 * wave, v2 * wave

    def coefficients(lo: int, hi: int) -> np.ndarray:
        # (3, 3, hi - lo) coefficient matrices at nodes lo..hi-1
        a = np.zeros((3, 3, hi - lo), dtype=complex)
        a[0, 1] = -p.k1 * v1[lo:hi]
        a[0, 2] = -p.k1 * v2[lo:hi]
        a[1, 0] = p.k1 * np.conj(v1[lo:hi])
        a[2, 0] = p.k1 * np.conj(v2[lo:hi])
        if not real:
            a[0, 0] = -0.5j * zeta
            a[1, 1] = a[2, 2] = 0.5j * zeta
        return a

    n = grid.nx
    psi = np.eye(3, dtype=complex) if real else _free_factor(zeta, grid.x_min)
    last = 2 * ((n - 1) // 2)  # node where the steps of 2h end
    for i in range(0, last, 2 * FOLD_BLOCK):
        a = coefficients(i, min(i + 2 * FOLD_BLOCK, last) + 1)
        steps = _rk4_step_matrices(a[:, :, :-1:2], a[:, :, 1::2], a[:, :, 2::2], 2.0 * h)
        psi = _fold(steps) @ psi
    if last == n - 2:
        # odd interval count: one single RK4 step with averaged midpoint
        a = coefficients(n - 2, n)
        a0, a1 = a[:, :, :1], a[:, :, 1:]
        psi = _rk4_step_matrices(a0, 0.5 * (a0 + a1), a1, h)[:, :, 0] @ psi

    return psi if real else _free_factor(-zeta, grid.x_max) @ psi

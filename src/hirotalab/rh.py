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

Direct scattering integrates the spectral ODE of a sampled field (a
core.SampledField, whose two rows are the potentials q1 and q2) by RK4 in
an interaction picture, where the free phase e^{+-i zeta x} is exact and
only the potential's step error is left.  Each step takes its own
picture at its first node, so no coefficient grows like e^{Im zeta |x|} off
the real axis; the coefficient has a zero diagonal, and each RK4 step
matrix is built in closed form from the potentials at the step's three
nodes.
"""

from __future__ import annotations

import numpy as np

from .core import SampledField, SpectralData, SystemParams, phase

__all__ = [
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
    """Raise ZeroDivisionError for the first zeta within POLE_RADIUS of a pole."""
    dist = np.abs(zeta[..., None] - poles).reshape(-1, len(poles))
    hit = dist.min(axis=1) < POLE_RADIUS
    if hit.any():
        i = int(np.argmax(hit))
        z, pole = complex(zeta.flat[i]), complex(poles[dist[i].argmin()])
        raise ZeroDivisionError(f"zeta = {z} is within {POLE_RADIUS} of the pole {pole}")


def rh_plus(zeta, data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """Upper-half-plane factor: identity minus the pole sum over zeta_j*."""
    zeta = np.asarray(zeta, dtype=complex)
    v, vhat, m_scaled, zetas = _scaled_vectors(data, p, x, t)
    poles = np.conj(zetas)
    _check_poles(zeta, poles)
    y = vhat / (zeta[..., None] - poles)[..., None]
    z = np.linalg.solve(m_scaled, y)
    return np.eye(3, dtype=complex) - v.T @ z


def rh_minus(zeta, data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """Lower-half-plane factor: identity plus the pole sum over zeta_k."""
    zeta = np.asarray(zeta, dtype=complex)
    v, vhat, m_scaled, zetas = _scaled_vectors(data, p, x, t)
    _check_poles(zeta, zetas)
    z = np.linalg.solve(m_scaled, vhat)
    return np.eye(3, dtype=complex) + (v.T / (zeta[..., None, None] - zetas)) @ z


def rh_plus_order1(data: SpectralData, p: SystemParams, x: float, t: float) -> np.ndarray:
    """1/zeta coefficient of the upper factor's large-zeta expansion."""
    v, vhat, m_scaled, _ = _scaled_vectors(data, p, x, t)
    z = np.linalg.solve(m_scaled, vhat)
    return -(v.T @ z)


def kernel_report(data: SpectralData, p: SystemParams, x: float, t: float) -> float:
    """Largest relative norm of the factor-kernel conditions at every eigenvalue:
    the right kernel of the upper factor at zeta_j and the left kernel of the
    lower factor at zeta_j*.  A NaN norm propagates."""
    v, vhat, _, zetas = _scaled_vectors(data, p, x, t)
    plus = rh_plus(zetas, data, p, x, t)
    minus = rh_minus(np.conj(zetas), data, p, x, t)
    right = [np.linalg.norm(p1 @ vj) / np.linalg.norm(vj) for p1, vj in zip(plus, v)]
    left = [np.linalg.norm(wj @ p2) / np.linalg.norm(wj) for p2, wj in zip(minus, vhat)]
    # np.max, unlike max, propagates a NaN norm
    return float(np.max(right + left))


def reconstruct(data: SpectralData, p: SystemParams, x: float, t: float) -> tuple[complex, complex]:
    """Potentials from the expansion coefficient: (-i/k1) times its (1,2) and
    (1,3) entries."""
    p1 = rh_plus_order1(data, p, x, t)
    return (
        complex(-1j / p.k1 * p1[0, 1]),
        complex(-1j / p.k1 * p1[0, 2]),
    )


def check_phase_step(h: float, zeta: complex) -> None:
    """Raise ValueError unless RK4 steps on a grid of spacing h resolve the
    e^{+-i zeta x} that the potential carries within a step."""
    if not h * abs(zeta) <= PHASE_STEP_LIMIT:
        raise ValueError(
            f"need h * |zeta| <= {PHASE_STEP_LIMIT} to bound RK4's step error on "
            f"the e^(+-i zeta x) within a step, got {h * abs(zeta):.3g}"
        )


def _free_factor(zeta: complex, x: float) -> np.ndarray:
    """Diagonal free-evolution factor exp((i/2) zeta sigma x)."""
    return np.diag(np.exp(0.5j * zeta * np.array([-1.0, 1.0, 1.0]) * x))


def _matmul33(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a[..., k] @ b[..., k] of 3x3 matrices stored as (3, 3, k) stacks."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _step_matrices(r0, r1, r2, c0, c1, c2, s: float) -> np.ndarray:
    """RK4 propagators of phi' = [[0, r^T], [c, 0]] phi over k steps of length s.

    r0, r1, r2 and c0, c1, c2 are (2, k) stacks of the coefficient's row r
    and column c at the start, middle and end of each step.  RK4 applied to
    the identity is I + s/6 (a0 + 4a1 + a2) + s^2/6 (a1a0 + a1^2 + a2a1)
    + s^3/12 (a1^2a0 + a2a1^2) + s^4/24 a2a1^2a0; a product of two such
    coefficients is block-diagonal and one of three is again of their
    shape, so every term closes in the dot products d10 = r1.c0,
    d11 = r1.c1 and d21 = r2.c1.  Result: (3, 3, k).
    """
    d10 = (r1 * c0).sum(axis=0)
    d11 = (r1 * c1).sum(axis=0)
    d21 = (r2 * c1).sum(axis=0)
    s1, s2, s3, s4 = s / 6.0, s * s / 6.0, s**3 / 12.0, s**4 / 24.0
    out = np.empty((3, 3, d10.shape[0]), dtype=complex)
    out[0, 0] = 1.0 + s2 * (d10 + d11 + d21) + s4 * (d21 * d10)
    out[0, 1:] = s1 * (r0 + 4.0 * r1 + r2) + s3 * (d11 * r0 + d21 * r1)
    out[1:, 0] = s1 * (c0 + 4.0 * c1 + c2) + s3 * (d10 * c1 + d11 * c2)
    out[1:, 1:] = s2 * (c1[:, None] * (r0 + r1) + c2[:, None] * r1)
    out[1:, 1:] += s4 * (d11 * c2)[:, None] * r0
    out[1, 1] += 1.0
    out[2, 2] += 1.0
    return out


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
    q: SampledField,
    zeta: complex,
    p: SystemParams,
    tail_threshold: float = TAIL_THRESHOLD,
) -> np.ndarray:
    """Scattering matrix of the sampled potential q at spectral parameter zeta.

    Integrates the 3x3 spectral ODE psi' = ((i/2) zeta sigma + Q) psi,
    sigma = diag(-1, 1, 1), over the grid and reads off S at the right end.
    Classical RK4 over node pairs, so grid values supply the exact
    midpoints; accuracy is O(h^4).  An odd interval count ends with one
    step of h whose midpoint coefficient is the average of its two end
    nodes.

    Each step of length s takes the interaction picture
    phi = exp(-(i/2) zeta sigma (x - x0)) psi afresh at its first node x0.
    Its coefficient is the potential alone, [[0, r^T], [c, 0]] with
    r = -k1 q e^{i zeta (x - x0)} and c = k1 conj(q) e^{-i zeta (x - x0)}
    for q = (q1, q2), which is e^{+-i zeta j h} at the step's j-th node, so
    no coefficient grows like e^{Im zeta |x|} off the real axis.  The step
    matrix is E P with E = exp((i/2) zeta sigma s) the exact free
    evolution (Lawson's integrating-factor RK4).  psi starts at the free
    factor exp((i/2) zeta sigma x_min) and S = exp(-(i/2) zeta sigma x_max)
    psi.  Off the real axis only the first column of S is meaningful, and
    its (1,1) entry extends analytically to the upper half plane.

    The ODE is linear, so each RK4 step matrix P is a fixed polynomial in
    the coefficients at its start, middle and end node, which
    `_step_matrices` evaluates in closed form.  All step matrices of a
    block of FOLD_BLOCK steps are built at once and multiplied together by
    pairwise (log-depth) products, later steps on the left; the block
    products are then applied in order.  Blocks bound the memory: the
    potentials, phases and step matrices of one block exist at a time,
    however long the grid is.

    Raises ValueError when the spacing fails check_phase_step or the
    field's end-node magnitude exceeds tail_threshold.
    """
    grid = q.grid
    h = grid.spacing
    check_phase_step(h, zeta)
    edge = q.edge_magnitude()
    if edge > tail_threshold:
        raise ValueError(
            f"boundary field magnitude {edge:.3g} exceeds {tail_threshold:.3g}; widen the grid"
        )

    # node j of a step carries ahead[j] = e^{i zeta j h} in its row and
    # behind[j] = e^{-i zeta j h} in its column
    ahead = np.exp(1j * zeta * h * np.arange(3))
    behind = np.exp(-1j * zeta * h * np.arange(3))

    def stage(nodes: slice, j: int):
        # rows and columns at grid nodes that lie j nodes into their steps
        r = -p.k1 * q.values[:, nodes]
        return ahead[j] * r, behind[j] * -np.conj(r)

    def free(s: float) -> np.ndarray:
        # E of a step of length s, to scale the rows of (3, 3, k) step matrices
        return np.diag(_free_factor(zeta, s))[:, None, None]

    n = grid.nx
    psi = _free_factor(zeta, grid.x_min)
    last = 2 * ((n - 1) // 2)  # node where the steps of 2h end
    for i in range(0, last, 2 * FOLD_BLOCK):
        hi = min(i + 2 * FOLD_BLOCK, last)
        (r0, c0), (r1, c1), (r2, c2) = (stage(slice(i + j, hi + j, 2), j) for j in range(3))
        steps = _step_matrices(r0, r1, r2, c0, c1, c2, 2.0 * h)
        steps *= free(2.0 * h)
        psi = _fold(steps) @ psi
    if last == n - 2:
        # odd interval count: one single RK4 step with averaged midpoint
        (r0, c0), (r1, c1) = stage(slice(n - 2, n - 1), 0), stage(slice(n - 1, n), 1)
        step = _step_matrices(r0, 0.5 * (r0 + r1), r1, c0, 0.5 * (c0 + c1), c1, h)
        step *= free(h)
        psi = step[:, :, 0] @ psi

    return _free_factor(-zeta, grid.x_max) @ psi

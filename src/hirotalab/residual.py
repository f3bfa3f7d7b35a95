"""Finite-difference derivatives and direct substitution into the coupled system.

Every finite difference in the package takes its weights from STENCILS, the
exact integer central stencils of orders 2 and 4 for derivatives 1-3
(Fornberg, Math. Comp. 51 (1988) 699-706), sums them with combine, and takes
its spacings from a ladder that check_ladder accepts.  The time derivative
applies the order's first-derivative stencil to time slices of the fields.
The ladder checks any field source fields(x, t) -> (q1, q2): the analytic
N-soliton evaluator is one, a perturbed or closed-form field is another.
Spatial derivatives, and so the residual, are formed only on the interior
nodes where the widest stencil fits, which is where the sup norms are taken.
Both coupled equations are one expression on (q1, q2) stacked as (2, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, SystemParams

__all__ = [
    "STENCILS",
    "stencil",
    "check_nodes",
    "combine",
    "interior_derivatives",
    "hirota_residual",
    "ResidualReport",
    "check_ladder",
    "convergence_order",
    "soliton_residual_ladder",
]

# STENCILS[order][derivative] = (weights, divisor): with w = len(weights) // 2,
#   sum_k weights[k] f(x + (k - w) h) / (divisor h^derivative)
# is the derivative of f at x up to O(h^order).
STENCILS = {
    2: {
        1: ((-1, 0, 1), 2),
        2: ((1, -2, 1), 1),
        3: ((-1, 2, 0, -2, 1), 2),
    },
    4: {
        1: ((1, -8, 0, 8, -1), 12),
        2: ((-1, 16, -30, 16, -1), 12),
        3: ((1, -8, 13, 0, -13, 8, -1), 8),
    },
}


def stencil(order: int, derivative: int) -> tuple[tuple[int, ...], int]:
    """STENCILS[order][derivative]; ValueError for an order not in the table."""
    if order not in STENCILS:
        raise ValueError("order must be 2 or 4")
    return STENCILS[order][derivative]


def check_nodes(nx: int, order: int) -> None:
    """Raise ValueError unless nx nodes hold the order's widest stencil."""
    need = len(stencil(order, 3)[0])
    if nx < need:
        raise ValueError(f"need at least {need} nodes for order {order}, got {nx}")


def combine(weights, scale, terms):
    """sum_k (weights[k] / scale) terms[k] in stencil order; a zero weight's
    term is skipped, so it adds no signed zero and no 0 * inf."""
    return sum(c / scale * term for c, term in zip(weights, terms) if c)


def interior_derivatives(v, h: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First, second and third derivatives of the samples v at spacing h.

    They are taken along the last axis, on the nodes v[..., w:n-w], w being
    the half-width of the third-derivative stencil of the order (2 or 4).
    """
    v = np.asarray(v)
    n = v.shape[-1]
    check_nodes(n, order)
    w = len(stencil(order, 3)[0]) // 2
    out = []
    for derivative in (1, 2, 3):
        weights, divisor = stencil(order, derivative)
        half = len(weights) // 2
        windows = [v[..., w + off : n - w + off] for off in range(-half, half + 1)]
        out.append(combine(weights, divisor, windows) / h**derivative)
    return tuple(out)


def hirota_residual(
    q, h: float, dt: float, p: SystemParams, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of both coupled equations on the center slice.

    q is (slices, 2, n): (q1, q2) on a grid of spacing h at the 2w+1 times,
    dt apart, that the order's first-derivative stencil needs (3 at order 2,
    5 at order 4); the time derivative is that stencil applied to them.  The
    residuals are given on the interior nodes of interior_derivatives.
    """
    weights, divisor = stencil(order, 1)
    if len(q) != len(weights):
        raise ValueError(f"order {order} needs {len(weights)} time slices, got {len(q)}")
    center = q[len(q) // 2]
    qx, qxx, qxxx = interior_derivatives(center, h, order)

    # the derivatives cover all but w nodes at each end
    w = (center.shape[-1] - qx.shape[-1]) // 2
    inner = slice(w, center.shape[-1] - w)
    v = center[:, inner]
    qt = combine(weights, divisor, [s[:, inner] for s in q]) / dt
    dens = np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2
    cross = np.conj(v[0]) * qx[0] + np.conj(v[1]) * qx[1]
    ksq = p.k1 * p.k1

    r = (
        qt
        + 2.0 * p.a2 * qxx
        + 4.0 * ksq * p.a2 * dens * v
        - p.epsilon * (qxxx + 3.0 * ksq * dens * qx + 3.0 * ksq * v * cross)
    )
    return r[0], r[1]


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm ladder for one equation plus its log-log slope."""

    spacings: tuple[float, ...]
    sup_norms: tuple[float, ...]
    estimated_order: float


_COUNTS = {2: "two", 3: "three"}


def check_ladder(spacings, least: int = 3, ratio: float | None = None) -> None:
    """Raise ValueError unless spacings are >= least h, each positive with a
    finite h**3 (the widest stencil's divisor), falling by one ratio (by ratio
    itself when given).  Each value is checked as a Python float: a numpy
    reduction would be a run's first, and grow its heap."""
    hs = [float(h) for h in spacings]
    if len(hs) < least:
        raise ValueError(f"need at least {_COUNTS.get(least, least)} spacings, got {len(hs)}")
    for h in hs:
        if not (h > 0.0 and math.isfinite(h * h * h)):
            raise ValueError(f"spacing {h!r} must be positive with a finite h**3")
    ratios = [a / b for a, b in zip(hs, hs[1:])]
    if any(r <= 1.0 or abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("spacings must form a decreasing geometric ladder")
    if ratio is not None and abs(ratios[0] - ratio) > 1e-9 * ratio:
        raise ValueError(f"spacings must fall by a ratio of {ratio:g} at each rung, got {ratios[0]:.6g}")


def convergence_order(spacings, sup_norms) -> ResidualReport:
    """Least-squares slope of log(sup norm) against log(h)."""
    hs = tuple(float(h) for h in spacings)
    ns = tuple(float(v) for v in sup_norms)
    if len(hs) != len(ns):
        raise ValueError("need one sup norm per spacing")
    check_ladder(hs)
    if any(v <= 0.0 for v in ns):
        slope = 0.0 if max(ns) == 0.0 else float("nan")
    else:
        slope = float(np.polyfit(np.log(hs), np.log(ns), 1)[0])
    return ResidualReport(hs, ns, slope)


def soliton_residual_ladder(
    fields,
    p: SystemParams,
    x_min: float,
    x_max: float,
    spacings,
    t_center: float,
    order: int = 2,
) -> tuple[ResidualReport, ResidualReport]:
    """Residual sup norms of a field source over an h ladder.

    fields(x, t) -> (q1, q2) is a source as core.sample takes it.  Each rung
    samples it once, at the grid points and the times t_center + o h for the
    offsets o of the order's first-derivative stencil (dt = h).
    """
    half = len(stencil(order, 1)[0]) // 2
    norms1, norms2 = [], []
    for h in spacings:
        grid = Grid1D.with_spacing(x_min, x_max, h)
        times = t_center + h * np.arange(-half, half + 1)
        q = np.stack(fields(grid.points(), times[:, None]), axis=1)
        r1, r2 = hirota_residual(q, grid.spacing, times[1] - times[0], p, order)
        norms1.append(float(np.abs(r1).max()))
        norms2.append(float(np.abs(r2).max()))
    return convergence_order(spacings, norms1), convergence_order(spacings, norms2)

"""Finite-difference derivatives and direct substitution into the coupled system.

The time derivative always comes from three analytic time slices (memory
light; the solution is cheap anywhere); spatial derivatives use centered
stencils of order 2 or 4.  Every derivative, and so the residual, is formed
only on the interior nodes where the widest (third-derivative) stencil
fits, which is where the sup norms are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexField, Grid1D, SpectralData, SystemParams
from . import nsoliton

__all__ = [
    "GridTooSmallError",
    "GridMismatchError",
    "InsufficientLadderError",
    "fd_weights",
    "interior_derivatives",
    "hirota_residual",
    "ResidualReport",
    "convergence_order",
    "soliton_residual_ladder",
]


class GridTooSmallError(ValueError):
    """The grid has fewer nodes than the stencil needs."""


class GridMismatchError(ValueError):
    """Fields passed together do not share grid or time spacing."""


class InsufficientLadderError(ValueError):
    """Convergence estimation needs at least three geometrically spaced h."""


def fd_weights(offsets, derivative: int) -> np.ndarray:
    """Weights w with sum_i w_i f(x + o_i h) = f^(der)(x) h^der + O(h^...).

    Solves the Vandermonde moment system, so the weights reproduce x^p
    exactly for p < len(offsets).  Offsets are in units of the spacing.
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    if derivative >= n:
        raise GridTooSmallError(f"{n} nodes cannot resolve derivative {derivative}")
    moments = np.vander(x, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[derivative] = math.factorial(derivative)
    return np.linalg.solve(moments, rhs)


def interior_derivatives(v, h: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First, second and third derivatives of the samples v at spacing h.

    All three are given on the nodes v[w:n-w], w = (order + 2) // 2 being the
    half-width of the third-derivative stencil of the given order (2 or 4).
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    n = len(v)
    w = (order + 2) // 2
    if n < 2 * w + 1:
        raise GridTooSmallError(f"need at least {2 * w + 1} nodes for order {order}, got {n}")
    out = []
    for derivative in (1, 2, 3):
        half = (derivative + order - 1) // 2
        offsets = range(-half, half + 1)
        acc = np.zeros(n - 2 * w, dtype=complex)
        for c, off in zip(fd_weights(offsets, derivative), offsets):
            acc += c * v[w + off : n - w + off]
        acc /= h**derivative
        out.append(acc)
    return tuple(out)


def _check_slices(slices) -> float:
    a, b, c = slices
    if not (a.grid == b.grid == c.grid):
        raise GridMismatchError("time slices must share one grid")
    dt1 = b.t - a.t
    dt2 = c.t - b.t
    if dt1 <= 0 or abs(dt1 - dt2) > 1e-12 * max(1.0, abs(dt1)):
        raise GridMismatchError("time slices must be equally spaced and increasing")
    return dt1


def hirota_residual(
    q1_slices, q2_slices, p: SystemParams, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of both coupled equations on the center slice.

    q1_slices and q2_slices are (earlier, center, later) fields with equal
    time spacing; the time derivative is the centered difference of the
    outer slices.  The residuals are given on the interior nodes of
    interior_derivatives.
    """
    dt = _check_slices(q1_slices)
    if abs(dt - _check_slices(q2_slices)) > 1e-12:
        raise GridMismatchError("q1 and q2 slices must share the time spacing")
    q1m, q10, q1p = q1_slices
    q2m, q20, q2p = q2_slices
    if q10.grid != q20.grid:
        raise GridMismatchError("q1 and q2 must share one grid")

    h = q10.grid.spacing
    q1x, q1xx, q1xxx = interior_derivatives(q10.values, h, order)
    q2x, q2xx, q2xxx = interior_derivatives(q20.values, h, order)

    # the derivatives cover the middle q1x.size nodes
    w = (q10.grid.nx - q1x.size) // 2
    inner = slice(w, w + q1x.size)
    v1, v2 = q10.values[inner], q20.values[inner]
    dens = np.abs(v1) ** 2 + np.abs(v2) ** 2
    cross = np.conj(v1) * q1x + np.conj(v2) * q2x
    q1t = (q1p.values[inner] - q1m.values[inner]) / (2.0 * dt)
    q2t = (q2p.values[inner] - q2m.values[inner]) / (2.0 * dt)
    ksq = p.k1 * p.k1

    r1 = (
        q1t
        + 2.0 * p.a2 * q1xx
        + 4.0 * ksq * p.a2 * dens * v1
        - p.epsilon * (q1xxx + 3.0 * ksq * dens * q1x + 3.0 * ksq * v1 * cross)
    )
    r2 = (
        q2t
        + 2.0 * p.a2 * q2xx
        + 4.0 * ksq * p.a2 * dens * v2
        - p.epsilon * (q2xxx + 3.0 * ksq * dens * q2x + 3.0 * ksq * v2 * cross)
    )
    return r1, r2


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm ladder for one equation plus its log-log slope."""

    spacings: tuple[float, ...]
    sup_norms: tuple[float, ...]
    estimated_order: float


def convergence_order(spacings, sup_norms) -> ResidualReport:
    """Least-squares slope of log(sup norm) against log(h)."""
    hs = tuple(float(h) for h in spacings)
    ns = tuple(float(v) for v in sup_norms)
    if len(hs) < 3 or len(hs) != len(ns):
        raise InsufficientLadderError("need at least three matched (h, norm) pairs")
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(r <= 1.0 for r in ratios) or any(
        abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios
    ):
        raise InsufficientLadderError("spacings must form a decreasing geometric ladder")
    if any(v <= 0.0 for v in ns):
        slope = 0.0 if max(ns) == 0.0 else float("nan")
    else:
        slope = float(np.polyfit(np.log(hs), np.log(ns), 1)[0])
    return ResidualReport(hs, ns, slope)


def soliton_residual_ladder(
    data: SpectralData,
    p: SystemParams,
    x_min: float,
    x_max: float,
    spacings,
    t_center: float,
    order: int = 2,
    perturbation=None,
) -> tuple[ResidualReport, ResidualReport]:
    """Residual sup norms of the analytic solution over an h ladder.

    Time slices are analytic evaluations spaced by dt = h.  An optional
    perturbation(x) multiplies both center-time fields, as a negative
    control that must destroy convergence.
    """
    norms1, norms2 = [], []
    for h in spacings:
        nx = int(round((x_max - x_min) / h)) + 1
        grid = Grid1D(x_min, x_min + (nx - 1) * h, nx)
        times = [t_center - h, t_center, t_center + h]
        fields = nsoliton.sample(data, p, grid, times)
        q1s = [f[0] for f in fields]
        q2s = [f[1] for f in fields]
        if perturbation is not None:
            factor = 1.0 + perturbation(grid.points())
            q1s[1] = ComplexField(grid, q1s[1].t, q1s[1].values * factor)
            q2s[1] = ComplexField(grid, q2s[1].t, q2s[1].values * factor)
        r1, r2 = hirota_residual(tuple(q1s), tuple(q2s), p, order)
        norms1.append(float(np.abs(r1).max()))
        norms2.append(float(np.abs(r2).max()))
    return (
        convergence_order(spacings, norms1),
        convergence_order(spacings, norms2),
    )

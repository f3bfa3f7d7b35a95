"""Domain types that check their own invariants, and the shared phase exponent.

Every grid is one Grid1D: a closed interval, or through Grid1D.periodic the
period the propagator steps on, wrap point excluded.  A sampled field is one
SampledField: the two components (q1, q2) as the rows of one read-only
(2, nx) array on a Grid1D at one time; sample makes them from any source.

Everything here is immutable after construction and every operation is a
pure function, so all of it is safe to evaluate concurrently on shared data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "SpectralDatum",
    "SpectralData",
    "Grid1D",
    "SampledField",
    "ValidationError",
    "phase",
    "sample",
    "trapezoid_mass",
]


class ValidationError(ValueError):
    """A domain invariant does not hold for the supplied inputs."""


@dataclass(frozen=True)
class SystemParams:
    """The three real constants of the coupled system.

    epsilon scales the third-order dispersion terms, a2 the second-order
    ones, and k1 the nonlinearity.  Construction requires all three finite
    and real and k1 != 0, which divides every field-reconstruction formula,
    and raises ValidationError otherwise.
    """

    epsilon: float
    k1: float
    a2: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "k1", "a2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidationError(f"parameter {name} must be a finite real, got {v!r}")
        if self.k1 == 0.0:
            raise ValidationError("k1 must be a nonzero finite real")


@dataclass(frozen=True)
class SpectralDatum:
    """One discrete eigenvalue zeta in C+ with its constant vector (alpha, beta, gamma)."""

    zeta: complex
    alpha: complex
    beta: complex
    gamma: complex

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=complex)


@dataclass(frozen=True)
class SpectralData:
    """Ordered collection of spectral data; all matrix indexing follows this order.

    Construction checks for at least one datum, then each datum (finite
    entries, Im zeta > 0, a nonzero vector), then that the zetas are distinct
    (only simple zeros are supported); ValidationError names the first failure.
    """

    data: tuple[SpectralDatum, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", tuple(self.data))
        for i, d in enumerate(self.data):
            entries = [complex(e) for e in (d.zeta, d.alpha, d.beta, d.gamma)]
            if not all(math.isfinite(e.real) and math.isfinite(e.imag) for e in entries):
                raise ValidationError(f"spectral datum {i} contains a non-finite entry")
            if not entries[0].imag > 0.0:
                raise ValidationError(
                    f"spectral datum {i}: Im(zeta) must be > 0, got zeta = {entries[0]}"
                )
            if d.alpha == 0 and d.beta == 0 and d.gamma == 0:
                raise ValidationError(f"spectral datum {i}: (alpha, beta, gamma) must be nonzero")
        zs = self.zetas().tolist()
        if not zs:
            raise ValidationError("spectral data must hold at least one datum")
        for i, z in enumerate(zs):
            if z in zs[i + 1 :]:
                j = zs.index(z, i + 1)
                raise ValidationError(f"spectral data {i} and {j} share the same zeta")

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, i: int) -> SpectralDatum:
        return self.data[i]

    def zetas(self) -> np.ndarray:
        return np.array([d.zeta for d in self.data], dtype=complex)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with nx nodes from x_min to x_max, both included.

    points() is np.linspace over the two ends.
    """

    x_min: float
    x_max: float
    nx: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValidationError("grid requires x_min < x_max")
        if self.nx < 2:
            raise ValidationError(f"grid requires nx >= 2, got {self.nx!r}")

    @classmethod
    def with_spacing(cls, x_min: float, x_max: float, h: float) -> Grid1D:
        """Grid from x_min in steps of h, ending at the node nearest x_max.

        Raises ValidationError unless h is positive and finite and
        (x_max - x_min) / h is a finite count.
        """
        if not (math.isfinite(h) and h > 0):
            raise ValidationError(f"spacing must be positive and finite, got {h!r}")
        count = (x_max - x_min) / h
        if not math.isfinite(count):
            raise ValidationError(f"spacing {h!r} gives no finite node count over [{x_min!r}, {x_max!r}]")
        nx = int(round(count)) + 1
        return cls(x_min, x_min + (nx - 1) * h, nx)

    @classmethod
    def periodic(cls, length: float, n: int) -> Grid1D:
        """Period [-length/2, length/2) at n >= 2 nodes -length/2 + j length/n.

        The wrap point is excluded, so spacing * nx is the period.  The ends
        are the nodes j = 0 and j = n - 1; points() interpolates the others
        between them, which places them to within rounding.
        """
        if not (math.isfinite(length) and length > 0):
            raise ValidationError("length must be positive and finite")
        if n < 2:
            raise ValidationError(f"spectral grid needs n >= 2 points, got {n}")
        return cls(-0.5 * length, -0.5 * length + (length / n) * (n - 1), n)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass(frozen=True, eq=False)
class SampledField:
    """The two-component field q = (q1, q2) sampled on a grid at one time.

    values is a read-only (2, nx) complex array whose rows are q1 and q2.
    A complex array passed in is made read-only in place, not copied.
    """

    grid: Grid1D
    t: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2, self.grid.nx):
            raise ValidationError(
                f"field must hold (2, nx) = (2, {self.grid.nx}) values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def edge_magnitude(self) -> float:
        """Largest |q1| or |q2| at the grid's two end nodes.

        Python's abs of a complex is libm's hypot.
        """
        return max(abs(v) for v in self.values[:, [0, -1]].ravel().tolist())


def sample(fields, grid: Grid1D, times) -> list[SampledField]:
    """One SampledField per time of a field source fields(x, t) -> (q1, q2) that broadcasts."""
    xs = grid.points()
    return [SampledField(grid, float(t), fields(xs, float(t))) for t in times]


def phase(d: SpectralDatum, p: SystemParams, x, t):
    """Phase exponent (i/2) zeta x - ((i/2) zeta^3 epsilon + zeta^2 a2) t.

    Accepts scalar or ndarray x and t (broadcast together); linear in each
    variable with the other held fixed.
    """
    z = d.zeta
    return 0.5j * z * np.asarray(x) - (0.5j * z**3 * p.epsilon + z**2 * p.a2) * np.asarray(t)


def trapezoid_mass(q: SampledField) -> float:
    """Trapezoid quadrature of |q1|^2 + |q2|^2 over the field's grid."""
    density = (np.abs(q.values) ** 2).sum(axis=0)
    return float(np.trapezoid(density, dx=q.grid.spacing))

import functools
import re

import numpy as np
import pytest

from hirotalab import nsoliton
from hirotalab.core import SpectralData, SpectralDatum, SystemParams


def exactly(message: str) -> str:
    """A pytest.raises match pattern for the whole of message, taken literally."""
    return f"^{re.escape(message)}$"


# the criterion-7 pair of collision_config.json: at a2 = 0 the zeta = 0.6 + 0.5i
# soliton, moving right from x = -14, meets the zeta = 0.2 + 0.7i one, moving
# left from x = 13.5, near t = 20.45
PAIR = SpectralData((
    SpectralDatum(0.2 + 0.7j, 1.0, np.exp(8.4) / np.sqrt(5.0), 2 * np.exp(8.4) / np.sqrt(5.0)),
    SpectralDatum(0.6 + 0.5j, 1.0, 0.6 * np.exp(-6.0), 0.8 * np.exp(-6.0)),
))


@pytest.fixture(scope="session")
def default_params():
    return SystemParams(epsilon=1.0, k1=1.0, a2=1.0)


@pytest.fixture(scope="session")
def third_order_params():
    return SystemParams(epsilon=1.0, k1=1.0, a2=0.0)


@pytest.fixture(scope="session")
def default_datum():
    return SpectralDatum(zeta=0.3 + 0.2j, alpha=1.0, beta=1.0, gamma=2.0)


@pytest.fixture(scope="session")
def default_data(default_datum):
    return SpectralData((default_datum,))


def evaluator(data: SpectralData, p: SystemParams):
    """Field source: the analytic N-soliton fields of data under p."""
    return functools.partial(nsoliton.fields_batch, data, p)


def centre_perturbed(data: SpectralData, p: SystemParams, t_center: float):
    """Field source: the analytic fields, times 1 + 1e-3 / cosh(x) at t_center only.

    A residual ladder centred on t_center must not converge on it.
    """
    def fields(x, t):
        factor = 1.0 + np.where(t == t_center, 1e-3 / np.cosh(x), 0.0)
        q1, q2 = nsoliton.fields_batch(data, p, x, t)
        return q1 * factor, q2 * factor

    return fields


def plane_wave(k, amps, omega):
    """Field source: (q1, q2) = amps e^{i(k x - omega t)}, broadcast over x and t."""
    def fields(x, t):
        wave = np.exp(1j * (k * x - omega * t))
        return amps[0] * wave, amps[1] * wave

    return fields


def peak_x(xs: np.ndarray, values: np.ndarray) -> float:
    """Grid maximum of values, moved to the vertex of the parabola through it
    and its two neighbours (the maximum must be interior)."""
    i = int(np.argmax(values))
    ym, y0, yp = values[i - 1 : i + 2]
    return float(xs[i] + 0.5 * (ym - yp) / (ym - 2 * y0 + yp) * (xs[1] - xs[0]))


def hump_heights(mod: np.ndarray, floor: float) -> list[float]:
    """Heights of the strict local maxima of mod above floor, each moved to the
    vertex of the parabola through it and its two neighbours."""
    heights = []
    for i in range(1, len(mod) - 1):
        if mod[i] > mod[i - 1] and mod[i] > mod[i + 1] and mod[i] > floor:
            ym, y0, yp = mod[i - 1], mod[i], mod[i + 1]
            den = ym - 2 * y0 + yp
            shift = 0.5 * (ym - yp) / den if den else 0.0
            heights.append(float(y0 - 0.25 * (ym - yp) * shift))
    return heights


def make_random_data(n: int, seed: int) -> SpectralData:
    rng = np.random.default_rng(seed)
    items = []
    while len(items) < n:
        zeta = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.15, 0.8))
        if any(zeta == d.zeta for d in items):
            continue
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        items.append(SpectralDatum(zeta, *map(complex, vec)))
    return SpectralData(tuple(items))


def nsoliton_doc(seed: int) -> dict:
    """Exact a2 = 0 config with N = 8, drawn as the benchmark's `nsoliton` workload draws it.

    Eight zetas with Re in [-0.6, 0.6], Im in [0.4, 0.8] and pairwise distance
    at least 0.15; alpha = 1 and a unit polarization scaled so that each
    one-soliton peak sits at a centre drawn from [-8, 8].
    """
    rng = np.random.default_rng([seed % 2**63, sum(map(ord, "nsoliton"))])
    zetas: list[complex] = []
    while len(zetas) < 8:
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(0.4, 0.8))
        if all(abs(z - w) >= 0.15 for w in zetas):
            zetas.append(z)
    spectral = []
    for z in zetas:
        centre = rng.uniform(-8.0, 8.0)
        pol = rng.normal(size=2) + 1j * rng.normal(size=2)
        beta, gamma = pol / np.linalg.norm(pol) * np.exp(z.imag * centre)
        spectral.append({
            key: {"re": complex(v).real, "im": complex(v).imag}
            for key, v in (("zeta", z), ("alpha", 1.0), ("beta", beta), ("gamma", gamma))
        })
    return {
        "params": {"epsilon": 1.0, "k1": 1.0, "a2": 0.0},
        "spectral": spectral,
        "grid": {"x_min": -30.0, "x_max": 30.0, "nx": 6001},
        "times": [-2.0, -1.0, 0.0, 1.0, 2.0],
    }

"""Layer probes at fixed sizes, independent of the workload seed.

Each probe times one public entry point of a layer on fixed inputs and
reports the median of several repeats.  A probe whose entry point is gone
reports None and is listed as absent with the error it raised.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


def _median_time(fn, repeats: int, inner: int = 1) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - start) / inner)
    return statistics.median(samples)


def _probe_data(core, n: int):
    """N fixed third-order solitons: zetas on a lattice in C+, centres spread."""
    rng = np.random.default_rng(20261017)
    items = []
    for k in range(n):
        zeta = complex(-0.45 + 0.3 * (k % 4), 0.45 + 0.15 * (k // 4))
        pol = rng.normal(size=2) + 1j * rng.normal(size=2)
        centre = -6.0 + 12.0 * k / (n - 1) if n > 1 else 0.0
        beta, gamma = pol / np.linalg.norm(pol) * np.exp(zeta.imag * centre)
        items.append(core.SpectralDatum(zeta, 1.0, complex(beta), complex(gamma)))
    return core.SpectralData(tuple(items))


def run(hirotalab_modules) -> tuple[dict, list[str]]:
    core, nsoliton, laxpair, rh, propagator = hirotalab_modules
    params = core.SystemParams(epsilon=1.0, k1=1.0, a2=0.0)
    one = _probe_data(core, 1)
    out: dict = {}
    absent: list[str] = []
    batch = getattr(nsoliton, "fields_batch", None) or getattr(nsoliton, "_fields_batch", None)

    def guarded(name, scale, probe):
        try:
            out[name] = probe() * scale
        except Exception as exc:  # a later API change must not stop the run
            out[name] = None
            absent.append(f"{name} ({type(exc).__name__}: {exc})")

    # the narrow criterion-7 soliton decays to the edge threshold on L = 80
    narrow = core.SpectralData((core.SpectralDatum(0.3 + 0.9j, 1.0, 5**-0.5, 2 * 5**-0.5),))

    def step_probe(n: int):
        steps = 10
        sgrid = propagator.SpectralGrid(80.0 * n / 1024, n)
        xs = sgrid.points()
        grid = core.Grid1D(float(xs[0]), float(xs[-1]), n)
        q1, q2 = batch(narrow, params, xs, 0.0)
        f1, f2 = core.ComplexField(grid, 0.0, q1), core.ComplexField(grid, 0.0, q2)
        dt = 1e-3
        return lambda: propagator.evolve(f1, f2, params, steps * dt, dt, [steps * dt])

    for n in (1024, 2048):
        guarded(f"probe.step_n{n}_ms", 1e3 / 10, lambda n=n: _median_time(step_probe(n), 5))

    # the propagator's own transform while it has one, else numpy's
    transform = getattr(propagator, "fft", None) or np.fft.fft
    signal = np.exp(1j * np.linspace(0.0, 50.0, 2048)) * np.linspace(1.0, 2.0, 2048)
    guarded("probe.fft_n2048_us", 1e6, lambda: _median_time(lambda: transform(signal), 7, 50))

    for n in (1, 2, 4, 8):
        data = _probe_data(core, n)
        jet_points = 2.0 + 0.01 * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        line = np.linspace(-20.0, 20.0, 4001)
        guarded(f"probe.batch_N{n}_m5_us", 1e6,
                lambda d=data: _median_time(lambda: batch(d, params, jet_points, 0.3), 7, 50))
        guarded(f"probe.batch_N{n}_m4001_ms", 1e3,
                lambda d=data: _median_time(lambda: batch(d, params, line, 0.3), 5))

    def scatter_probe():
        grid = core.Grid1D(-60.0, 60.0, 12001)
        q1, q2 = batch(one, params, grid.points(), 0.0)
        f1, f2 = core.ComplexField(grid, 0.0, q1), core.ComplexField(grid, 0.0, q2)
        zeta = complex(one[0].zeta)
        return lambda: rh.direct_scattering(f1, f2, zeta, params)

    guarded("probe.scatter_zeta_ms", 1e3, lambda: _median_time(scatter_probe(), 3))
    guarded("probe.zc_ms", 1e3, lambda: _median_time(
        lambda: laxpair.zero_curvature_residual(one, params, 0.8j, 2.0, 0.5, 0.01, 2), 7, 5))
    eight = _probe_data(core, 8)
    guarded("probe.rh_factors_ms", 1e3, lambda: _median_time(
        lambda: (rh.rh_plus(0.3 - 0.2j, eight, params, 0.7, 0.4),
                 rh.rh_minus(0.3 - 0.2j, eight, params, 0.7, 0.4)), 7, 20))
    return out, absent

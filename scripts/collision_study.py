#!/usr/bin/env python3
"""Two-soliton collision study.

Part 1 tracks the hump amplitudes of the analytic two-soliton through a
collision and prints how they recover their asymptotic values Im(zeta_k)
(elastic interaction).  Part 2 cross-checks the pseudo-spectral propagator
against the analytic formula straight through the crossing, in the
third-order-dispersion sector where the family solves the system exactly.

Usage: python scripts/collision_study.py [--skip-propagation]
"""

import sys
import time

import numpy as np

from hirotalab.core import Grid1D, SpectralData, SpectralDatum, SystemParams
from hirotalab import nsoliton, propagator


def hump_amplitudes(data, params, grid, t, floor=0.1):
    q, = nsoliton.sample(data, params, grid, [t])
    mod = np.sqrt((np.abs(q.values) ** 2).sum(axis=0))
    out = []
    for i in range(1, len(mod) - 1):
        if mod[i] > mod[i - 1] and mod[i] > mod[i + 1] and mod[i] > floor:
            out.append((float(grid.points()[i]), float(mod[i])))
    return out


def main() -> int:
    params = SystemParams(epsilon=1.0, k1=1.0, a2=0.0)
    data = SpectralData((
        SpectralDatum(0.2 + 0.7j, 1.0, np.exp(8.4) / np.sqrt(5), 2 * np.exp(8.4) / np.sqrt(5)),
        SpectralDatum(0.6 + 0.5j, 1.0, 0.6 * np.exp(-6.0), 0.8 * np.exp(-6.0)),
    ))
    grid = Grid1D(-70.0, 70.0, 7001)

    print("analytic hump amplitudes (asymptotic values are Im zeta = 0.7 and 0.5):")
    for t in (-40.0, -20.0, 0.0, 10.0, 20.0, 26.0, 30.0, 40.0, 60.0):
        humps = hump_amplitudes(data, params, grid, t)
        txt = ", ".join(f"{a:.4f} @ x={x:+.1f}" for x, a in humps)
        print(f"  t = {t:+6.1f}: {txt}")

    if "--skip-propagation" in sys.argv:
        return 0

    print("\npropagating the pair through the crossing (t = 0 .. 30)...")
    g = Grid1D.periodic(160.0, 2048)
    q0, = nsoliton.sample(data, params, g, [0.0])
    start = time.perf_counter()
    times = [10.0, 20.0, 30.0]
    snaps = propagator.evolve(q0, params, 30.0, 2e-3, times)
    elapsed = time.perf_counter() - start
    for q, want, t in zip(snaps, nsoliton.sample(data, params, g, times), times):
        err = np.abs(q.values - want.values).max()
        print(f"  t = {t:4.1f}: L_inf distance to the analytic formula {err:.3e}")
    print(f"done in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

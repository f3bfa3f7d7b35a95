"""Seeded workload generators for the time-to-verdict benchmark.

Each workload is a list of configs plus the CLI commands run on each of
them.  The seed reaches the lab only through the generated config files.
Generators use numpy and json alone, so they run before the package under
test is imported.

matrix     the six commands on both bundled configs, as
           scripts/verification_matrix.py runs them; the seed picks
           rh_check.seed only.  Every layer does a little work, the a2=1
           negative control takes the fail-fast paths, and the evaluator
           runs in tiny batches (3-5 points per zero-curvature jet).
collision  the criterion-7 two-soliton pair (a2=0, L=160, n=2048, dt=2e-3)
           through `propagate`, over a window of t_final=1 centred on the
           crossing; the seed multiplies each soliton's beta and gamma by a
           unit-modulus phase.  Step and FFT do nearly all the work.
nsoliton   N=8 third-order data through sample, residual, zero-curvature,
           rh-check and scatter, no propagate.  Large batched solves,
           13 scattering integrations and about 4 MB of CSV do the work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ALL_COMMANDS = ["sample", "rh-check", "scatter", "residual", "zero-curvature", "propagate"]

# README verdict table: the a2=1 default fails residual, zero-curvature and
# propagate with exit 2; the a2=0 third-order config passes everything.
MATRIX_EXIT = {
    "default": {c: 2 if c in ("residual", "zero-curvature", "propagate") else 0 for c in ALL_COMMANDS},
    "third_order": {c: 0 for c in ALL_COMMANDS},
}

# Criterion-7 pair.  Its peak overlap lies at t = 20.45; the window starts
# half a unit earlier, so t = 0 of the generated config is t = 19.95 there.
COLLISION_SHIFT = 19.95
COLLISION_WINDOW = 1.0

NSOLITON_N = 8
# Im(zeta) >= 0.4 and this separation keep the scattering tails at x = +-60
# below 1e-5 and the interaction matrix below the evaluator's condition
# limit on the whole scatter grid (checked on seeds 0-149).
NSOLITON_MIN_SEPARATION = 0.15


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, sum(map(ord, workload))])


def _cnum(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _datum(zeta, alpha, beta, gamma) -> dict:
    return {"zeta": _cnum(zeta), "alpha": _cnum(alpha), "beta": _cnum(beta), "gamma": _cnum(gamma)}


def matrix(seed: int, data_dir: Path) -> list[tuple[str, dict, list[str]]]:
    rh_seed = int(_rng(seed, "matrix").integers(2**31))
    out = []
    for name in ("default", "third_order"):
        doc = json.loads((data_dir / f"{name}_config.json").read_text())
        doc["rh_check"] = dict(doc.get("rh_check", {}), seed=rh_seed)
        out.append((name, doc, list(ALL_COMMANDS)))
    return out


def collision(seed: int, data_dir: Path) -> list[tuple[str, dict, list[str]]]:
    eps = 1.0
    pair = [
        (0.2 + 0.7j, np.exp(8.4) / np.sqrt(5.0), 2 * np.exp(8.4) / np.sqrt(5.0)),
        (0.6 + 0.5j, 0.6 * np.exp(-6.0), 0.8 * np.exp(-6.0)),
    ]
    phases = _rng(seed, "collision").uniform(0.0, 2 * np.pi, size=len(pair))
    spectral = []
    for (zeta, beta, gamma), phi in zip(pair, phases):
        # with a2 = 0, data at t = 0 equal the original data at t = shift
        # when beta and gamma carry exp(-i zeta^3 eps shift) (alpha kept at 1)
        factor = np.exp(-1j * zeta**3 * eps * COLLISION_SHIFT) * np.exp(1j * phi)
        spectral.append(_datum(zeta, 1.0, beta * factor, gamma * factor))
    doc = {
        "params": {"epsilon": eps, "k1": 1.0, "a2": 0.0},
        "spectral": spectral,
        "grid": {"x_min": -80.0, "x_max": 80.0, "nx": 2049},
        "times": [],
        "propagate": {
            "length": 160.0,
            "n": 2048,
            "dt": 0.002,
            "t_final": COLLISION_WINDOW,
            "snapshots": [0.25, 0.5, 0.75, 1.0],
            "edge_threshold": 1e-9,
        },
    }
    return [("pair", doc, ["propagate"])]


def nsoliton(seed: int, data_dir: Path) -> list[tuple[str, dict, list[str]]]:
    rng = _rng(seed, "nsoliton")
    zetas: list[complex] = []
    while len(zetas) < NSOLITON_N:
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(0.4, 0.8))
        if all(abs(z - w) >= NSOLITON_MIN_SEPARATION for w in zetas):
            zetas.append(z)
    spectral = []
    for z in zetas:
        centre = rng.uniform(-8.0, 8.0)
        pol = rng.normal(size=2) + 1j * rng.normal(size=2)
        # the one-soliton modulus peaks at x = ln|(beta, gamma)| / Im(zeta)
        beta, gamma = pol / np.linalg.norm(pol) * np.exp(z.imag * centre)
        spectral.append(_datum(z, 1.0, beta, gamma))
    doc = {
        "params": {"epsilon": 1.0, "k1": 1.0, "a2": 0.0},
        "spectral": spectral,
        "grid": {"x_min": -30.0, "x_max": 30.0, "nx": 6001},
        "times": [-2.0, -1.0, 0.0, 1.0, 2.0],
    }
    return [("n8", doc, ["sample", "residual", "zero-curvature", "rh-check", "scatter"])]


GENERATORS = {"matrix": matrix, "collision": collision, "nsoliton": nsoliton}


def expected_exits(workload: str, config: str, command: str) -> list[int]:
    """Exit codes that count as a correct outcome of one invocation."""
    if workload == "matrix":
        return [MATRIX_EXIT[config][command]]
    if workload == "collision":
        # a2 = 0 is an exact solution family: propagation must match it
        return [0]
    return [0, 2]


def write_configs(workload: str, seed: int, data_dir: Path, dest: Path) -> list[dict]:
    """Generate the workload's configs into dest; returns the op manifest."""
    dest.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, doc, commands in GENERATORS[workload](seed, data_dir):
        path = dest / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        entries.append({"name": name, "path": str(path), "commands": commands})
    return entries

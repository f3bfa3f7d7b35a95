#!/usr/bin/env python3
"""Verdict census: the lab's one table of expected verdicts.

Runs the six commands on every bundled config and exits 1 when an exit code
departs from TABLE (the README's verdict table), naming each departing
(config, command) pair on stderr, else 0.  Then runs SEED_COMMANDS on the
exact a2 = 0 data of tests/conftest.py's nsoliton_doc (N = 8) for each seed
in SEEDS and prints, for each report row, its FAILs, its worst value with
that value's seed, and for a band row its range.  A band row's worst value
lies farthest outside (or nearest the edge of) its band.  Per-zeta rows are
grouped by order and rung (zc_o4_ratio0, s11_zero).  Seed rows are reported,
not gated.  Every output goes to a temporary directory.

Usage: python scripts/census.py
"""

import json
import math
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from hirotalab import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import nsoliton_doc  # noqa: E402

DATA = Path(cli.__file__).parent / "data"
COMMANDS = ("sample", "rh-check", "scatter", "residual", "zero-curvature", "propagate")
# exit code of each command; the a2 = 1 family solves no equation of the
# system (README), so every check of its time evolution fails
TABLE = {
    "default_config.json": {**dict.fromkeys(COMMANDS, 0), "residual": 2, "zero-curvature": 2, "propagate": 2},
    "third_order_config.json": dict.fromkeys(COMMANDS, 0),
    "collision_config.json": dict.fromkeys(COMMANDS, 0),
}
SEEDS = range(60)
SEED_COMMANDS = ("rh-check", "scatter", "residual", "zero-curvature")


def run(command: str, config: Path, out: Path) -> int:
    return cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])


def badness(value: float, threshold: str) -> float:
    """How far value lies past its threshold, an upper bound or a band lo..hi."""
    lo, _, hi = threshold.partition("..")
    bad = max(float(lo) - value, value - float(hi)) if hi else value
    return math.inf if math.isnan(bad) else bad


def main() -> int:
    departed = 0
    print(f"{'config':25}" + "".join(f"{command:16}" for command in COMMANDS).rstrip())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, want in TABLE.items():
            codes = [run(command, DATA / name, tmp / name / command) for command in COMMANDS]
            print(f"{name:25}" + "".join(f"{f'exit {code}':16}" for code in codes).rstrip())
            for command, code in zip(COMMANDS, codes):
                if code != want[command]:
                    departed = 1
                    print(f"{name} {command}: exit {code}, the table says {want[command]}", file=sys.stderr)

        failed, rows = dict.fromkeys(SEED_COMMANDS, 0), defaultdict(list)
        for seed in SEEDS:
            config = tmp / f"seed{seed}.json"
            config.write_text(json.dumps(nsoliton_doc(seed)))
            for command in SEED_COMMANDS:
                out = tmp / str(seed) / command
                failed[command] += run(command, config, out) == 2
                report, = out.glob("*_report.csv")
                for line in report.read_text().split("\n")[1:-1]:
                    name, value, threshold, ok = line.split(",")
                    group = re.sub(r"_z?\d+(?=_|$)", "", name)
                    rows[command, group, threshold].append((float(value), seed, ok == "false"))

    print(f"\nexact N = 8 data, {len(SEEDS)} seeds; exit 2 on: " + ", ".join(f"{c} {n}" for c, n in failed.items()))
    print(f"{'command':16}{'row':18}{'threshold':12}{'FAILs':10}{'worst (seed)':22}range")
    for (command, group, threshold), values in rows.items():
        worst, seed, _ = max(values, key=lambda v: badness(v[0], threshold))
        lo, _, hi = threshold.partition("..")
        limit = f"{float(lo):g}..{float(hi):g}" if hi else f"{float(lo):g}"
        span = f"{min(v[0] for v in values):.3g}..{max(v[0] for v in values):.3g}" if hi else ""
        fails = f"{sum(v[2] for v in values)}/{len(values)}"
        print(f"{command:16}{group:18}{limit:12}{fails:10}{f'{worst:.3g} ({seed})':22}{span}".rstrip())
    return departed


if __name__ == "__main__":
    sys.exit(main())

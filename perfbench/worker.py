"""One benchmark process: runs the workload's command list in a closed loop.

Usage: python3 perfbench/worker.py MANIFEST RESULT

MANIFEST (JSON, written by run.py) names the generated configs, the
commands per config, the accepted exit codes, the measuring time and
whether to trace.  The worker writes its result to RESULT as JSON.

A round runs every (config, command) pair once through hirotalab.cli.main,
in-process, one after the other, each timed by calibrate.SpeedSampler,
which also gives its time in reference seconds.  The first round is a
warm-up whose outputs become the reference every later round must reproduce
byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import SpeedSampler

REPORT_HEADER = "name,value,threshold,pass"
FIELD_HEADER = "x,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2"

# report row -> numerical-health metric (max over the workload's configs)
HEALTH_ROWS = {
    "final_linf": "propagator.final_linf",
    "mass_drift": "propagator.mass_drift",
    "det_s_max_err": "rh.det_s_max_err",
    "reconstruct_max": "rh.reconstruct_max",
}


@dataclass
class Op:
    config: str
    path: str
    command: str
    exits: list[int]
    doc: dict


@dataclass
class RoundResult:
    wall_s: float  # summed wall seconds of the round's commands
    ref_s: float  # the same in reference seconds (wall seconds when traced)
    command_s: dict  # reference seconds per command, summed over configs
    failed_rows: int = 0
    bytes_written: int = 0
    files_written: int = 0
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    health: dict = field(default_factory=dict)


def _csv_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _count_rows(path: Path, header: str, width: int) -> int | None:
    """Data rows of a CSV with the given header and column count; None if malformed."""
    lines = _csv_lines(path)
    if not lines or lines[0] != header:
        return None
    if any(len(line.split(",")) != width for line in lines[1:]):
        return None
    return len(lines) - 1


def _snapshot_count(propagate: dict) -> int:
    dt = float(propagate["dt"])
    steps = {round(float(s) / dt) for s in propagate["snapshots"]}
    return len(steps | {round(float(propagate["t_final"]) / dt)})


def check_outputs(op: Op, code: int, stderr: str, out: Path) -> tuple[list[str], int, dict]:
    """Problems with one invocation's outputs, its failed report rows, and health values."""
    problems = []
    if code not in op.exits:
        problems.append(f"exit {code}, expected {op.exits}")
    if "could not run" in stderr or "Traceback" in stderr:
        problems.append(stderr.strip().splitlines()[-1] if stderr.strip() else "error")
    failed_rows = 0
    health = {}
    reports = sorted(out.glob("*report*.csv")) if out.is_dir() else []
    if not reports and op.command != "sample":
        problems.append("no report CSV")
    for path in reports:
        lines = _csv_lines(path)
        if not lines or lines[0] != REPORT_HEADER or len(lines) < 2:
            problems.append(f"{path.name}: malformed report")
            continue
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 4 or parts[3] not in ("true", "false"):
                problems.append(f"{path.name}: malformed row {line!r}")
                continue
            failed_rows += parts[3] == "false"
            if parts[0] in HEALTH_ROWS:
                health[HEALTH_ROWS[parts[0]]] = float(parts[1])
    if (failed_rows == 0) != (code == 0) and code in (0, 2):
        problems.append(f"exit {code} disagrees with {failed_rows} failed rows")

    if op.command == "sample":
        fields = sorted(out.glob("fields_t*.csv"))
        nx = int(op.doc["grid"]["nx"])
        if len(fields) != len(op.doc.get("times", [])):
            problems.append(f"{len(fields)} field CSVs for {len(op.doc.get('times', []))} times")
        problems += [f"{f.name}: incomplete" for f in fields if _count_rows(f, FIELD_HEADER, 7) != nx]
    if op.command == "residual":
        ladder = out / "residual_ladder.csv"
        want = len(op.doc.get("residual", {}).get("spacings", [0.1, 0.05, 0.025]))
        if not ladder.is_file() or _count_rows(ladder, "h,sup_norm_q1,sup_norm_q2", 3) != want:
            problems.append("residual_ladder.csv incomplete")
    if op.command == "propagate" and code == 0:
        prop = op.doc["propagate"]
        n = int(prop["n"])
        snaps = sorted(out.glob("snapshot_t*.csv"))
        if len(snaps) != _snapshot_count(prop):
            problems.append(f"{len(snaps)} snapshot CSVs, expected {_snapshot_count(prop)}")
        problems += [f"{f.name}: incomplete" for f in snaps if _count_rows(f, FIELD_HEADER, 7) != n]
        table = out / "propagation_table.csv"
        if not table.is_file() or _count_rows(table, "t,linf_error_q1,linf_error_q2", 3) != len(snaps):
            problems.append("propagation_table.csv incomplete")
    return problems, failed_rows, health


def digest(out: Path) -> tuple[str, int, int]:
    """sha256 over every CSV (name and bytes), plus bytes and files written in total."""
    h = hashlib.sha256()
    total, files = 0, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        files += 1
        if path.suffix == ".csv":
            h.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
    return h.hexdigest(), total, files


class Workload:
    def __init__(self, cli, ops: list[Op], scratch: Path) -> None:
        self.cli = cli
        self.ops = ops
        self.scratch = scratch
        self.reference: list | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.failures: list[str] = []
        self.tracer = None
        self.probes: list[float] = []

    def round(self, rid) -> RoundResult:
        if self.tracer is not None:
            self.tracer.round = rid
        root = self.scratch / f"round_{rid}"
        shutil.rmtree(root, ignore_errors=True)
        runs = []
        for op in self.ops:
            out = root / op.config / op.command
            argv = [op.command, "--config", op.path, "--out", str(out), "--quiet"]
            err = io.StringIO()
            # traced rounds report wall time only, so no probe runs inside a span
            timer = SpeedSampler(sample=self.tracer is None)
            try:
                with timer, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception:  # an op that crashes counts as failed; the loop goes on
                code = None
                err.write(traceback.format_exc())
            runs.append((op, code, timer.wall_s, timer.ref_s, err.getvalue(), out))
            self.probes += timer.samples
        result = RoundResult(wall_s=sum(r[2] for r in runs), ref_s=sum(r[3] for r in runs), command_s={})

        for i, (op, code, _, seconds, stderr, out) in enumerate(runs):
            result.command_s[op.command] = result.command_s.get(op.command, 0.0) + seconds
            problems, rows, health = check_outputs(op, code, stderr, out)
            ref, size, files = digest(out) if out.is_dir() else ("", 0, 0)
            if self.reference is not None and ref != self.reference[i]:
                self.mismatches += 1
                problems.append("outputs differ from the first round")
            result.digests.append(ref)
            result.failed_rows += rows
            result.bytes_written += size
            result.files_written += files
            for key, value in health.items():
                result.health[key] = max(result.health.get(key, value), value)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append(f"round {rid} {op.config} {op.command}: {'; '.join(problems)}")
        if self.reference is None:
            self.reference = result.digests
        shutil.rmtree(root, ignore_errors=True)
        return result

    def measure(self, seconds: float, min_rounds: int, first_id: int) -> list[RoundResult]:
        """Rounds until the next one would end more than half a round past `seconds`."""
        rounds: list[RoundResult] = []
        begin = perf_counter()
        while len(rounds) < min_rounds or (
            perf_counter() - begin + 0.5 * rounds[-1].wall_s < seconds
        ):
            rounds.append(self.round(first_id + len(rounds)))
        return rounds


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(rounds: list[RoundResult]) -> dict:
    commands = sorted({c for r in rounds for c in r.command_s})
    return {
        "rounds": len(rounds),
        "verify_s": _median([r.ref_s for r in rounds]),
        "verify_s_all": [r.ref_s for r in rounds],
        "wall_s": _median([r.wall_s for r in rounds]),
        "wall_s_all": [r.wall_s for r in rounds],
        "command_s": {c: _median([r.command_s[c] for r in rounds]) for c in commands},
        "failed_rows": [r.failed_rows for r in rounds],
        "bytes_written": _median([r.bytes_written for r in rounds]),
        "files_written": _median([r.files_written for r in rounds]),
        "health": rounds[0].health if rounds else {},
    }


def layer_metrics(totals: dict, round_ids: list[int]) -> dict:
    """Median over traced rounds of each span's calls, work, busy and self time."""
    names = sorted({n for rid in round_ids for n in totals[rid]["spans"]})
    out = {}
    for name in names:
        per = [totals[rid]["spans"].get(name) for rid in round_ids]
        for key in ("calls", "work", "busy_s", "self_s"):
            out[f"{name}.{key}"] = _median([p[key] if p else 0 for p in per])
    return out


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text())
    scratch = Path(manifest["scratch"])

    import numpy as np
    from hirotalab import cli, core, laxpair, nsoliton, propagator, rh

    for entry in manifest["configs"]:
        # a config the lab rejects is a generator bug, not a failed op
        cli.load_config(entry["path"])
    ops = [
        Op(e["name"], e["path"], cmd, e["exits"][cmd], json.loads(Path(e["path"]).read_text()))
        for e in manifest["configs"]
        for cmd in e["commands"]
    ]
    work = Workload(cli, ops, scratch)
    seconds = float(manifest["seconds"])
    warm = work.round(0)

    result: dict = {"warmup_s": warm.wall_s}
    if not manifest["trace"]:
        rounds = work.measure(seconds, 3, 1)
        result["untraced"] = summarize(rounds)
    else:
        import probes
        from tracer import Tracer

        untraced = work.measure(seconds / 2, 2, 1)
        tracer = Tracer()
        tracer.install()
        first = 1 + len(untraced)
        work.tracer = tracer
        traced = work.measure(seconds / 2, 2, first)
        work.tracer = None
        tracer.uninstall()
        tracer.write(scratch / "spans.csv")
        result["untraced"] = summarize(untraced)
        result["traced"] = summarize(traced)
        traced_ids = list(range(first, first + len(traced)))
        totals = tracer.layer_totals()
        result["layers"] = layer_metrics(totals, traced_ids)
        result["span_self_total_s"] = _median([totals[rid]["self_total"] for rid in traced_ids])
        result["absent"] = tracer.absent
        result["span_count"] = len(tracer.spans)
        result["probes"], result["absent_probes"] = probes.run((core, nsoliton, laxpair, rh, propagator))

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result.update(
        attempted=work.attempted,
        failed=work.failed,
        mismatches=work.mismatches,
        failures=work.failures[:20],
        warmup_failed_rows=warm.failed_rows,
        probe_s=_median(work.probes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
    )
    Path(argv[2]).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

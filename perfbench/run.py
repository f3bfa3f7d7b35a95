#!/usr/bin/env python3
"""Time-to-verdict benchmark of the hirotalab verification lab.

Usage (from the repository root):

    python3 perfbench/run.py --workload {matrix,collision,nsoliton} \
        --seed N --seconds S --trace {0,1}

The workload's configs are generated from the seed, then one worker process
(one client, closed loop, BLAS/OpenMP pinned to one thread) runs the
workload's command list through hirotalab.cli.main for S seconds after a
warm-up round, and checks every invocation's exit code and outputs.
verify_s is the median round time in reference seconds: each command's wall
time rescaled by a fixed probe sampled all through it (calibrate.py), which
takes the shared host's speed changes out.  verify_wall_s, printed but not
gated, is the same median in wall seconds.  setup_s is the median over
several fresh interpreters of importing hirotalab.cli and loading the
configs, each rescaled by launches that import numpy alone, made around it.
--trace 1 splits the time between untraced and traced rounds and adds
fixed-size layer probes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1.  Every metric, the
environment and the checks also go to .perfbench_out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import launch_reference_seconds

HERE = Path(__file__).resolve().parent
# set-up launches before and after the worker, so they sample more than one
# stretch of the machine's (shared, fluctuating) speed
SETUP_LAUNCHES = 4
DEADLINE_S = 170.0
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# what the work counter of a span counts
WORK_NAMES = {"propagator.fft": "points", "nsoliton.batch": "points", "rh.scatter": "rk4_steps"}


def unit(name: str) -> str:
    if name.endswith(("calls", "points", "rk4_steps", "rows", "written")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    for suffix in ("_ms", "_us", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    if name == "failed_ops":
        return "share"
    return "1"


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if shutil.which("git") is None:
        return None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def launch_s(env: dict, args: list[str]) -> float:
    """Seconds from starting perfbench/ready.py with args to its "ready" line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "ready.py"), *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        seconds = perf_counter() - start
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return seconds


def measure_setup(env: dict, paths: list[str]) -> list[tuple[float, float]]:
    """Fresh interpreter to "ready": import hirotalab.cli, load every config.

    Each launch is bracketed by baseline launches that import numpy alone;
    returns (wall, reference) seconds per launch, as calibrate.py defines them.
    """
    samples = []
    before = launch_s(env, ["--baseline"])
    for _ in range(SETUP_LAUNCHES):
        wall = launch_s(env, paths)
        after = launch_s(env, ["--baseline"])
        samples.append((wall, launch_reference_seconds(wall, before, after)))
        before = after
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = perf_counter()

    root = Path.cwd()
    src = root / "src"
    data_dir = src / "hirotalab" / "data"
    spec_path = root / "BENCHMARK.json"
    if not (src / "hirotalab" / "cli.py").is_file() or not data_dir.is_dir():
        return fail(f"no hirotalab sources under {src}; run from the repository root", 2)
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found in the working directory", 2)
    spec = json.loads(spec_path.read_text())

    scratch = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    entries = workloads.write_configs(args.workload, args.seed, data_dir, scratch / "configs")
    again = workloads.write_configs(args.workload, args.seed, data_dir, scratch / "configs_again")
    deterministic = all(
        Path(a["path"]).read_bytes() == Path(b["path"]).read_bytes() for a, b in zip(entries, again)
    )
    shutil.rmtree(scratch / "configs_again")
    for entry in entries:
        entry["exits"] = {
            cmd: workloads.expected_exits(args.workload, entry["name"], cmd) for cmd in entry["commands"]
        }

    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    config_paths = [e["path"] for e in entries]
    try:
        setup = measure_setup(env, config_paths)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"set-up probe: {exc}", 3)

    manifest = scratch / "manifest.json"
    manifest.write_text(json.dumps({
        "configs": entries, "scratch": str(scratch / "out"),
        "seconds": args.seconds, "trace": bool(args.trace),
    }, indent=1))
    result_path = scratch / "worker.json"
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(manifest), str(result_path)],
                              env=env, stdout=sys.stderr)
    try:
        worker.wait(timeout=max(DEADLINE_S - (perf_counter() - begin), 1.0))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        return fail("worker did not finish in time", 3)
    if worker.returncode != 0 or not result_path.is_file():
        return fail(f"worker exited with {worker.returncode}", 3)
    try:
        setup += measure_setup(env, config_paths)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"set-up probe: {exc}", 3)
    res = json.loads(result_path.read_text())

    untraced = res["untraced"]
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "setup_wall_s": statistics.median(wall for wall, _ in setup),
        "verify_s": untraced["verify_s"],
        "verify_wall_s": untraced["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_rows": untraced["failed_rows"][0],
        "failed_ops": res["failed"] / res["attempted"],
    }
    for cmd, seconds in untraced["command_s"].items():
        metrics[cmd.replace("-", "_") + "_s"] = seconds
    rows_seen = {res["warmup_failed_rows"], *untraced["failed_rows"]}
    checks = {
        "configs_deterministic": deterministic,
        "outputs_identical_across_rounds": res["mismatches"] == 0,
    }
    absent = []
    if args.trace:
        traced, layers = res["traced"], res["layers"]
        for key, value in layers.items():
            span, _, kind = key.rpartition(".")
            if kind == "work":
                if span not in WORK_NAMES:
                    continue
                kind = WORK_NAMES[span]
            metrics[f"{span}.{kind}"] = value
        metrics["cli.self_s"] = layers.get("cli.main.self_s", 0.0)
        metrics["cli.load_config_s"] = layers.get("cli.load_config.busy_s", 0.0)
        metrics["cli.bytes_written"] = traced["bytes_written"]
        metrics["cli.files_written"] = traced["files_written"]
        metrics.update(traced["health"])
        # spans hold wall seconds, so the trace is held to wall rounds
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics["trace.unaccounted_s"] = traced["wall_s"] - res["span_self_total_s"]
        probes = res["probes"]
        metrics.update({k: v for k, v in probes.items() if v is not None})
        absent = res["absent"] + res["absent_probes"]
        rows_seen |= set(traced["failed_rows"])
        # every second of a traced round lies in some span, up to the loop itself
        checks["spans_account_for_verify"] = (
            abs(metrics["trace.unaccounted_s"]) <= max(abs(metrics["trace.overhead_s"]), 0.01)
        )
    else:
        metrics.update(untraced["health"])
    checks["failed_rows_constant"] = len(rows_seen) == 1

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    final = {}
    for name, declared_unit in declared.items():
        # a span that never ran on this workload counted nothing
        value = metrics.get(name, 0)
        if declared_unit == "count":
            value = int(value)
        final[name] = {"value": value, "unit": declared_unit}

    gated_checks = {k: v for k, v in checks.items() if k != "spans_account_for_verify"}
    correct = res["failed"] == 0 and all(gated_checks.values())
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "thread_pins": THREAD_PINS,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": untraced["rounds"], "verify_s_rounds": untraced["verify_s_all"],
        "verify_wall_s_rounds": untraced["wall_s_all"],
        "setup_s_launches": setup, "warmup_s": res["warmup_s"],
        "probe_s_median": res["probe_s"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
        "checks": checks, "absent": absent, "failures": res["failures"],
        "environment": environment,
    }
    if args.trace:
        record["traced_rounds"] = res["traced"]["rounds"]
        record["span_count"] = res["span_count"]
    (scratch / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={untraced['rounds']} attempted={res['attempted']} failed={res['failed']}")
    for name, entry in record["metrics"].items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for line in res["failures"]:
        print(f"  failure: {line}")
    if absent:
        print(f"  absent: {', '.join(absent)}")
    print("  environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

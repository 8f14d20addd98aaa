#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds `perfbench/` (a Cargo package of its own that depends
on the repository's crates by path) in release mode and runs one workload.
The last line of standard output is the result object; the lines before it
carry provenance, sample counts and output checks.  The exit code is the
benchmark's: non-zero when an output check failed.

`--self-test` runs every workload at tiny scale, traced and untraced, and
checks that each passes its output checks and prints exactly the metric
names and units declared in BENCHMARK.json.

Cargo's target directory is `$CARGO_TARGET_DIR`, or `.bench_build` at the
checkout root when that is unset.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trace_replay", "predict_churn", "fleet_steady", "socket_stream")
# A run measures for --seconds; set-up, checks and the traced replays come on
# top.  Anything slower than this has hung.
RUN_TIMEOUT_S = 170
# Workloads run on one CPU.  The closed-loop socket workloads hand every
# round or block between the load generator and the event loop; across two
# virtual CPUs each hand-off wakes an idle CPU, whose cost swings with the
# host's load by more than the work itself takes.  On one CPU the hand-off
# is a context switch.  The in-process fleet has one busy thread and is kept
# off migrations.  trace_replay is not pinned: its generator spins to each
# event's due time while the paced server sends, and both must run then.
PINNED = ("predict_churn", "fleet_steady", "socket_stream")
# The CPUs this script was started on.
ALL_CPUS = os.sched_getaffinity(0)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_checkout():
    for path in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml"),
                 os.path.join("crates", "transport", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"{path} not found under {ROOT}: run from a full checkout of the repository")


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)
    return os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "khameleon-perfbench")


def source_rev():
    """The git revision, or a digest of the sources when there is no git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "/out" not in d[len(path):] and "/target" not in d[len(path):])
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def pin(workload):
    """Restricts this script, and so the benchmark it starts next, to the
    workload's CPUs: the highest-numbered CPU it was started on for a pinned
    workload, all of them otherwise.  A run that cannot be pinned goes on
    unpinned; its provenance shows the CPUs it had."""
    cpus = {max(ALL_CPUS)} if workload in PINNED else ALL_CPUS
    try:
        os.sched_setaffinity(0, cpus)
    except OSError as e:
        print(f"perfbench: could not pin to CPUs {sorted(cpus)}: {e}", file=sys.stderr)


def run(binary, args, capture=False):
    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_rev())
    pin(args[args.index("--workload") + 1] if "--workload" in args else None)
    try:
        return subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            done = run(binary, args, capture=True)
            label = f"{workload} trace={trace}"
            lines = (done.stdout or "").strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                missing = set(declared[trace]) - set(metrics)
                extra = set(metrics) - set(declared[trace])
                problems.append(f"{label}: missing {sorted(missing)} extra {sorted(extra)}")
            for name, m in metrics.items():
                if declared[trace].get(name) != m["unit"] or not isinstance(m["value"], (int, float)):
                    problems.append(f"{label}: {name} = {m}")
                elif trace == 0 and not m["value"] > 0:
                    problems.append(f"{label}: end-to-end {name} reads {m['value']}")
            print(f"{label}: {'ok' if not problems else 'checked'}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "pass" if not problems else "fail", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv):
    require_checkout()
    if argv == ["--self-test"]:
        return self_test(build())
    binary = build()
    return run(binary, argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Benchmark driver for the dlaas workspace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload traffic|burst|chaos --seed N \
        --seconds S --trace 0|1

Builds the `dlaas-perfbench` package (its own Cargo workspace, depending
on the repository's crates by path) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the workload in single-threaded processes.

--trace 0 runs the workload untraced, one run per process, in as many
processes (at least two) as fit in S measured seconds, and prints the
end-to-end metrics: wall rates, set-up time and peak memory as medians
over the processes, the sim-derived metrics (identical in every
process) as they are. --trace 1
does the same, then runs the workload once more through the
step-attribution loop and prints the per-layer metrics, with the
tracing overhead as the traced run's wall time minus the untraced
median. Every process must produce the same digest of sim-derived
output, the traced one included. The Chrome trace, the self-time table
and the digests land in `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
any correctness check fails, 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import subprocess
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 120
# No new untraced process starts after this many seconds of a run, so a
# slow host still finishes well inside its time limit.
LAUNCH_BUDGET_S = 75


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("the dlaas crates are missing; run from the root of a checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    if r.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "dlaas-perfbench")


def run_child(binary, args):
    """Runs one benchmark process; returns its JSON record and its peak
    resident set in MB."""
    p = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        die(f"{' '.join(args)} exited with {p.returncode}", 1)
    lines = out.strip().splitlines()
    if not lines:
        die(f"{' '.join(args)} printed nothing", 1)
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def declared(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def run_plain(binary, base, seconds, started):
    """Untraced processes, one run each: at least two, so every run
    checks that same-seed processes agree, then more while another run
    of the mean length still fits in `seconds` (and the launch budget).
    Returns the records, the first one calibrated."""
    records = []
    measured = 0.0
    while len(records) < 2 or (
            measured + measured / len(records) <= seconds
            and time.monotonic() - started < LAUNCH_BUDGET_S):
        flags = ["--mode", "plain"] + (["--calibrate"] if not records else [])
        rec, rss = run_child(binary, base + flags)
        rec["peak_rss_mb"] = rss
        records.append(rec)
        measured += rec["wall_s"]
    return records


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["traffic", "burst", "chaos"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    binary = build()
    want = declared(a.trace)
    base = ["--workload", a.workload, "--seed", str(a.seed), "--out", OUT]
    plain = run_plain(binary, base, a.seconds, started)
    first = plain[0]
    problems = [p for r in plain for p in r["problems"]]
    digests = sorted({r["digest"] for r in plain})
    if len(digests) > 1:
        problems.append(f"same-seed processes disagree: digests {digests}")
    walls = [r["wall_s"] for r in plain]
    calib = first["layer"]["sim.calib_events_per_wall_s"][0]
    print(f"perfbench: {a.workload} seed {a.seed}: {len(plain)} untraced run(s), "
          f"wall {' '.join(f'{w:.3f}' for w in walls)} s, "
          f"calibration {calib:.0f} events/s", file=sys.stderr)

    if a.trace == 0:
        metrics = dict(first["e2e"])
        for name in ("jobs_per_wall_s", "sim_s_per_wall_s", "setup_s"):
            metrics[name] = [statistics.median([r["e2e"][name][0] for r in plain]), metrics[name][1]]
        metrics["peak_rss_mb"] = [statistics.median([r["peak_rss_mb"] for r in plain]), "MB"]
    else:
        traced, _ = run_child(binary, base + ["--mode", "traced"])
        problems += traced["problems"]
        if traced["digest"] != first["digest"]:
            problems.append(
                f"traced output {traced['digest']} differs from untraced {first['digest']}"
                f" (diff {OUT}/{a.workload}-s{a.seed}-*.digest.txt)")
        stepping = traced["stepping_wall_s"]
        if abs(traced["accounted_wall_s"] - stepping) > 1e-6 * max(1.0, stepping):
            problems.append("per-layer wall does not add up to the stepping wall time")
        metrics = dict(traced["layer"])
        metrics["sim.calib_events_per_wall_s"] = first["layer"]["sim.calib_events_per_wall_s"]
        overhead = traced["wall_s"] - statistics.median(walls)
        metrics["trace.overhead_s"] = [overhead, "s"]
        print(f"perfbench: tracing overhead {overhead:.3f} s on {statistics.median(walls):.3f} s untraced"
              f" ({100.0 * overhead / statistics.median(walls):+.1f}%)", file=sys.stderr)

    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    wrong_unit = sorted(k for k in want if k in metrics and metrics[k][1] != want[k])
    if missing or extra or wrong_unit:
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, wrong unit {wrong_unit}", 1)

    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in want},
    }
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

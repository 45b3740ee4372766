#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|serve|exec --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (and, for
the serve workload, the `pitchforkd` daemon) with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), runs one measurement, and
passes its output through. The last line of standard output is the
result object; it is checked against the metric lists in
BENCHMARK.json before it is printed. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("compile", "serve", "exec")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(manifest, target_dir, extra=()):
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode == 0


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_result(line, trace):
    """Raise ValueError unless `line` reports exactly the metrics that
    BENCHMARK.json lists for this kind of run, with their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics %s differ from BENCHMARK.json %s" % (got, want))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not cargo_build("perfbench/Cargo.toml", target):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    daemon = os.path.join(target, "release", "pitchforkd")
    if args.workload == "serve" and not cargo_build(
            "crates/service/Cargo.toml", target, ("--bin", "pitchforkd")):
        print("perfbench: building pitchforkd failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", ".bench_out", "--pitchforkd", daemon, "--rev", git_rev()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate()
    finally:
        # The daemon a serve run starts is killed by the kernel when the
        # benchmark dies (parent-death signal), so killing it is enough.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError, OSError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

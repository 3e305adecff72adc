#!/usr/bin/env python3
"""Builds and runs the InteGrade benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that builds the repository's crates from source in
two variants: `release` (plain) and `traced` (`--features profile`, which
turns on the simulator's phase timers). Both are built on every call;
Cargo makes the second and later calls cheap.

With `--trace 0` the plain binary runs for `--seconds` and reports the
end-to-end metrics. With `--trace 1` the plain binary runs for half the
time, the traced binary for the other half, and the per-layer metrics are
reported, including the tracing overhead (traced run_s minus plain run_s).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The command exits non-zero,
printing no result, when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(profile, features):
    """Builds one variant; returns the binary's path or exits on failure."""
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", MANIFEST,
           "--profile", profile] + features
    # Cargo's own output goes to stderr so stdout ends with the result line.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), profile, "perfbench")


def run(binary, args, seconds, trace, extra=()):
    """Runs the binary; echoes its report lines and returns the result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    plain = build("release", [])
    traced = build("traced", ["--features", "profile"])

    if args.trace == 0:
        result = run(plain, args, args.seconds, 0)
    else:
        half = args.seconds / 2
        untraced = run(plain, args, half, 0)
        run_s = untraced["metrics"]["run_s"]["value"]
        result = run(traced, args, half, 1, ["--untraced-run-s", repr(run_s)])
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()

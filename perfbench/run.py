#!/usr/bin/env python3
"""Builds the raco benchmark and runs one workload.

    python3 perfbench/run.py --workload <batch_cold|library_warm|serve_warm> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `raco` binary (for the serve
workload) and the benchmark package in perfbench/ into
$CARGO_TARGET_DIR (default .bench_build), offline, then runs the
benchmark. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. Exits non-zero, without a result, if the
repository cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "raco",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.exists(cmd[-1]):
            print(f"run.py: {cmd[-1]} not found", file=sys.stderr)
            return 2
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            return built.returncode
    bench = os.path.join(target, "release", "perfbench")
    raco = os.path.join(target, "release", "raco")
    out = os.path.join(HERE, "out")
    return subprocess.run([bench, "--raco", raco, "--out", out] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark (release profile, offline) and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Cargo's
output goes to stderr; stdout carries only the benchmark's own lines,
the last of which is the result object. A failed build exits nonzero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "capgpu-perfbench")
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()

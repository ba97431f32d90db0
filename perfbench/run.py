#!/usr/bin/env python3
"""Builds linkclust and the benchmark from source, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <cluster-sparse|cluster-dense|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build) and its
messages go to stderr; the last line on stdout is the result object.
Inputs and traces are written under .perfbench_work. Any further
arguments (--size tiny, --fault ...) are passed to the benchmark binary.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(bench / "Cargo.toml"),
        "-p", "perfbench", "-p", "linkclust", "--bins",
    ]
    built = subprocess.run(build, env=env, stdout=sys.stderr, check=False)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    release = target / "release"
    command = [
        str(release / "perfbench"),
        "--daemon", str(release / "linkclustd"),
        "--work", str(root / ".perfbench_work"),
        *sys.argv[1:],
    ]
    return subprocess.run(command, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

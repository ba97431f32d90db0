#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Run from the root of the repository:

    python3 perfbench/spread.py --workload cluster-sparse --seeds 1-10 \
        [--seconds 20] [--trace 0] [--keep DIR]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles (statistics.quantiles
with n=4) as a share of that median. End-to-end metrics are shown next to
their bound from BENCHMARK.json and a third of it. With --keep, each
run's whole stdout is saved as DIR/<workload>-<seed>.txt.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(spec: str) -> range:
    first, _, last = spec.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--keep", type=Path)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seed_range(args.seeds):
        command = [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(command, capture_output=True, text=True, cwd=root, check=False)
        if args.keep:
            args.keep.mkdir(parents=True, exist_ok=True)
            (args.keep / f"{args.workload}-{seed}.txt").write_text(out.stdout)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            file=sys.stderr,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        line = f"{name:34} median {median:<14.6g} spread {spread:6.3f}"
        if name in bounds:
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE"
            line += f"  bound {bound:.2f} third {bound / 3:.3f} {verdict}"
        print(line)
        print(f"{'':34} values {' '.join(f'{v:.6g}' for v in vs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the programs under test and run one benchmark measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lu-c64 --seed 1 --seconds 28 --trace 0

Builds the release binaries `titrace-gen`, `titreplay` and `titserved`
exactly as users do, plus the `perfbench` program twice (plain, and with
the `profile` feature for the traced layer pass), into `$CARGO_TARGET_DIR`
(default `.bench_build`). Then runs `perfbench`, whose last line of
standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["lu-c64", "allreduce-p128", "halo-p128", "whatif-mix"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    missing = [p for p in ("Cargo.toml", "crates/core", "crates/titserved") if not (root / p).exists()]
    if missing:
        print(f"perfbench: not a tit-replay checkout, missing {', '.join(missing)} in {root}",
              file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # The programs' own thread defaults must not leak in from the caller.
    for var in ("TITR_REPLAY_THREADS", "TITR_SWEEP_THREADS"):
        env.pop(var, None)
    manifest = str(bench_dir / "Cargo.toml")
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "tit-replay", "-p", "titserved", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
         "--features", "profile", "--target-dir", str(target / "perfbench-profiled")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    release = target / "release"
    bench = [
        str(release / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", str(release),
        "--layers-bin", str(target / "perfbench-profiled" / "release" / "perfbench"),
        "--work-dir", str(root / ".bench_work"),
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

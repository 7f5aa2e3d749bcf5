#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <typing|mixed|hosting> --seed <n> \
        --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at the
root). The last line of standard output is the JSON result; build output
goes to standard error. The benchmark runs pinned to the highest-numbered
CPU this process may use; each episode runs in a child process of the
benchmark, which inherits the pinning. With --trace 1 the spans of the first
traced episode are written under <target dir>/perfbench-spans/. The exit code is the benchmark's:
non-zero when the build, an operation or a correctness check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # One core for the single-threaded benchmark, the same one every run, so
    # runs do not differ by the core the scheduler happens to pick.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

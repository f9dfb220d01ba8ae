#!/usr/bin/env python3
"""Build the expansion benchmark from this checkout and run one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload cold-expand|meta-heavy|warm-edit \\
        --seed N --seconds S --trace 0|1

The engine is compiled from ../src with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. With --trace 1 the spans of the run are written
to <build dir>/spans/<workload>-seed<N>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", build_dir, "--target", "msq_perfbench",
            "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "msq_perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else "0"
        args += ["--spans",
                 os.path.join(spans, "%s-seed%s.json" % (workload, seed))]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the RTDS library.

Usage, from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library from src/ plus the e2ebench binary (Release, IPO) into
$CARGO_TARGET_DIR if set, else .bench_build/, then runs one workload
serially. Workloads: closed_wide, open_knee, chaos_repair, policy_compare
(see workloads.cpp for why each exists). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics measured with tracing off;
--trace 1 reports the per-layer metrics from a traced run.

Extra arguments are passed to the binary; --print-golden prints the
digest and pinned counters that e2ebench/golden.txt records for seed 42.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds incrementally; build output goes to stderr so
    standard output stays the benchmark's own."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    golden = os.path.join(HERE, "golden.txt")
    return subprocess.run([binary, "--golden", golden] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

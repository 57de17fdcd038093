#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the benchmark) in Release
mode under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every correctness check passed, 1 when one failed, and
non-zero without a result when the build or the arguments are bad.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; nothing to build\n")
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                             "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 3
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

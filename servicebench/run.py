#!/usr/bin/env python3
"""Builds and runs the ADA-HEALTH service benchmark.

Run from the repository root:

    python3 servicebench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0
    python3 servicebench/run.py --self-test

The first call configures and builds servicebench/ (which compiles the
repository's src/ next to it) into $CARGO_TARGET_DIR, or .bench_build/
when that is unset; later calls only rebuild what changed. Build output
goes to stderr. The benchmark's last stdout line is its JSON result and
its exit code is passed through (non-zero when an output check fails).
"""
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, target, extra_cmake_args=()):
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        configure = ["cmake", "-S", str(root / "servicebench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *extra_cmake_args]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / target


def main():
    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no ADA-HEALTH sources (src/CMakeLists.txt); run from the repository root")
    if not (root / "servicebench" / "CMakeLists.txt").is_file():
        fail("servicebench/CMakeLists.txt not found; run from the repository root")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    args = sys.argv[1:]
    if args == ["--self-test"]:
        test = build(root, build_dir / "selftest", "servicebench_test",
                     ["-DSERVICEBENCH_TESTS=ON"])
        sys.exit(subprocess.run([str(test)]).returncode)

    binary = build(root, build_dir, "service_bench")
    try:
        child = subprocess.run([str(binary), *args], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"service_bench did not finish within {RUN_TIMEOUT_S} s", 3)
    if child.returncode < 0:
        fail(f"service_bench died from signal {-child.returncode}", 4)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()

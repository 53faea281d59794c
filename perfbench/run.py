#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload insitu-h2 --seed 1 --seconds 12 --trace 0

Workloads: insitu-h2, archive-eurosat, wire-h2 (see perfbench/README.md).
The library and benchmark are built from source into .bench_build/, the
models are trained once into .bench_build/models/, and a traced run writes
its spans under .bench_build/traces/. The last line of standard output is
the JSON result of the benchmark binary; the exit code is its exit code.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "efbench")
MODELS = os.path.join(BUILD_DIR, "models")
TRACES = os.path.join(BUILD_DIR, "traces")
WORKLOADS = ("insitu-h2", "archive-eurosat", "wire-h2")

BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its code."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        return 124


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources (src/) in this checkout")
        return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code = call(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator,
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return code
    return call(["cmake", "--build", CMAKE_DIR, "-j", jobs],
                BUILD_TIMEOUT_S, stdout=sys.stderr)


def source_rev():
    """Git revision when the checkout is a repository, else a digest of
    every file the benchmark builds from."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    code = build()
    if code != 0:
        log(f"build failed ({code})")
        return code or 1
    code = call([BINARY, "--prepare", "--models", MODELS], PREPARE_TIMEOUT_S,
                stdout=sys.stderr)
    if code != 0:
        log(f"model preparation failed ({code})")
        return code
    sys.stdout.flush()
    return call([BINARY, "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--models", MODELS,
                 "--out", TRACES, "--source-rev", source_rev()],
                RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

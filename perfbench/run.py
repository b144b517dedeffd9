#!/usr/bin/env python3
"""Builds the admission benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload replay-risk-128 --seed 1 \
        --seconds 20 --trace 0

The binary is configured and built from source (CMake, Release) under
`.bench_build/perfbench` on the first call; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
output check passed, non-zero otherwise (also when the build fails).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = (
    "replay-risk-128",
    "libra-bestfit-1024",
    "gateway-libra-3p",
    "federation-risk-4x128",
)
# One run, with its warm-up, set-ups and checks, must end well inside the
# 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    build_file = "build.ninja" if generator else "Makefile"
    if not os.path.exists(os.path.join(BUILD_DIR, build_file)):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_version():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
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
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(ROOT, ".bench_build", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--commit", source_version(),
               "--spans", os.path.join(ROOT, ".bench_build", f"spans-{args.workload}.jsonl")]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

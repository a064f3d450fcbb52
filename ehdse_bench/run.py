#!/usr/bin/env python3
"""Build the ehdse benchmark program from source, then run one workload.

    python3 ehdse_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                               [--requests N]

Builds into .bench_build/ at the repository root (skipped when the sources
are unchanged since the last build), then runs it from the root.
Build output goes to stderr; stdout carries only the program's two lines:
the full result record, then the summary object as the last line. The exit
code is the program's: 0 when every output check passed.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "ehdse_bench"
# Everything the benchmark build reads; a change to any of them rebuilds.
SOURCES = ["CMakeLists.txt", "src/**/*", "tools/CMakeLists.txt",
           "ehdse_bench/CMakeLists.txt", "ehdse_bench/src/*"]
# The benchmark program exits well inside this; it bounds a hung run.
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    for pattern in SOURCES:
        for path in sorted(ROOT.glob(pattern)):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(digest):
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stamp = BUILD_DIR / "source.digest"
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if BINARY.exists() and stamp.exists() and stamp.read_text() == digest:
            return
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "ehdse_bench"),
                            "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release",
                            *generator],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "ehdse_bench", "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
        stamp.write_text(digest)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="cap per connection (smoke test)")
    args = parser.parse_args()

    for required in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / required).is_file():
            print(f"run.py: {required} is missing; the benchmark builds the "
                  "program from a full source checkout", file=sys.stderr)
            return 2

    digest = source_digest()
    try:
        build(digest)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--requests", str(args.requests),
               "--git-sha", git_sha(), "--source-digest", digest]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: ehdse_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_burst --seed 1 --seconds 10 --trace 0

The C++ program under perfbench/cc links the library built from ../src, so
the build fails (and this script exits non-zero without a result line) when
the checkout holds only the benchmark. The build tree lives in
$CARGO_TARGET_DIR (default .bench_build) under the repository root; the
first run configures and builds it, later runs only re-check it.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the benchmarked sources, a stand-in for the commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", os.path.relpath(HERE, ROOT)):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def build(build_dir):
    """Configures once, then incrementally builds only the perfbench target.
    Build output goes to stderr so stdout stays the program's report."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ directory next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"] + generator,
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    argv = [binary] + sys.argv[1:] + [
        "--commit", commit_id(), "--source-digest", source_digest(),
        "--out-dir", out_dir]
    return subprocess.run(argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

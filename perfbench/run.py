#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload train|serve|stream --seed N \
        --seconds S --trace 0|1

The first run configures and compiles the library tree under src/ together
with perfbench/*.cc into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only re-check the build. The binary's own output is passed
through unchanged: its last stdout line is the JSON result, one line
before it the host/configuration diagnostics. Build logs go to stderr.

Exits non-zero without printing a result when the library sources or a
compiler are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "cmake")


def run_quiet(cmd):
    """Runs a build step, forwarding its output to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        fail("build step failed: %s" % " ".join(cmd))


def ensure_built(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs])
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def main():
    out = build_dir()
    binary = ensure_built(out)
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(out, "out")]
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process, so the binary's exit code and output are the
    # run's and no wrapper process outlives it.
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()

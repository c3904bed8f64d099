#!/usr/bin/env python3
"""Builds and runs the LightTR end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (the library from src/
plus the benchmark binary) in Release mode under $CARGO_TARGET_DIR
(default .bench_build, relative to the repository root), then runs the
binary with the given arguments. Build output goes to stderr; stdout is
the binary's, whose last line is the JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
TARGET = "lighttr_perfbench"
# Compile jobs; each needs a few hundred MB, so this stays modest.
JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(command):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    return result.returncode == 0


def build(out):
    return (run_step(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"]) and
            run_step(["cmake", "--build", out, "--target", TARGET,
                      "-j", JOBS]))


def main(argv):
    out = build_dir()
    if not build(out):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    child = subprocess.Popen([os.path.join(out, TARGET)] + argv, cwd=ROOT,
                             stdout=subprocess.PIPE)
    try:
        stdout, _ = child.communicate()
    except BaseException:
        child.kill()
        child.wait()
        raise
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

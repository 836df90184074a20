#!/usr/bin/env python3
"""Build the benchmark from this source checkout and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The benchmark and the simulator
library are built with dune into .bench_build/ (dune's shared cache off,
so nothing is written outside the checkout); the arguments are passed
through to the benchmark, whose last stdout line is the result object.
Exits non-zero, without a result, when the checkout has no library source
to build, or when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a git repository, otherwise a
    digest of the library and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return "git:" + lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--cache", "disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    args = [EXE] + sys.argv[1:] + ["--commit", source_id()]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <oneshot|serve|storm> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark executable (perfbench/perfbench.ml) is built with dune
into .bench_build/ under the current directory, with dune's shared
cache off and the compiler's temporary files under .bench_build/tmp,
so nothing is written outside the checkout.  Build
output goes to standard error; the benchmark's own output, whose last
line is the JSON result, goes to standard output.  The exit code is
the benchmark's, or 2 when the checkout cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no dune-project and lib/ here; run from the "
            "repository root\n"
        )
        return 2
    tmp = os.path.join(os.getcwd(), BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

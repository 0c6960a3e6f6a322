#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree. The executable is built with dune
in the release profile, with dune's shared cache off so that nothing is
written outside the tree, and then replaces this process with every
argument passed on; main.ml lists them. A failed build exits non-zero
before anything is measured.
"""

import os
import subprocess
import sys

TARGET = "./e2e_bench/main.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", TARGET],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("e2e_bench: build failed")
    exe = os.path.join("_build", "default", TARGET)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the HarborSim benchmark from the repository root.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the lab daemon (`reproduce_all`) and the benchmark program (this
directory, a Cargo package of its own) in release mode, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the program. It
prints every metric with its unit and sample count, and as its last line
of standard output one JSON object with the result. A failed build or
run exits non-zero without a result line.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
BUILDS = (
    ["-p", "harborsim-bench", "--bin", "reproduce_all"],
    ["-p", "harborsim-perfbench"],
)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for selection in BUILDS:
        cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
        # cargo reports on stderr; standard output carries only results
        built = subprocess.run(cargo + selection, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            return built.returncode
    release = os.path.join(target, "release")
    program = [
        os.path.join(release, "harborsim-perfbench"),
        "--daemon",
        os.path.join(release, "reproduce_all"),
        "--out",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(program + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the wall-clock RTPB benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flood-durable --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory, a module of its own
that builds against the checkout's sources (go.mod replaces rtpb with the
parent directory). Everything the build and the run write stays under
.bench_build/ in the checkout: the Go build cache, the binary, the
write-ahead-log directories and the span files. The last line of standard
output is the result as one JSON object; the exit code is non-zero when
the build fails, an output check fails or the run is invalid.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=go_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [
        binary, *sys.argv[1:],
        "-benchmark", os.path.join(ROOT, "BENCHMARK.json"),
        "-workdir", os.path.join(BUILD, "work"),
    ]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 15 --trace 0

The Go program is built into the build directory ($CARGO_TARGET_DIR, else
.bench_build) with every Go cache and config directory inside it, so the
benchmark reads and writes nothing outside the checkout. All arguments are
passed to the program; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=build_env(build),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return proc.returncode or 1
    out = os.path.join(build, "trace")
    proc = subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

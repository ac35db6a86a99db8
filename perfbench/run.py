#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-recursive --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py compare --parent ../old --change . --workload large-bisect

Every build product, the Go build cache and the benchmark's scratch files
stay under .bench_build/ in the repository root. The last line printed is
the benchmark's JSON result. A checkout without the repository's Go
sources fails the build, so the script exits nonzero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(WORK, "gocache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(WORK, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    args = [binary] + sys.argv[1:] + ["--root", ROOT, "--work", WORK, "--commit", commit]
    sys.exit(subprocess.run(args, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from the checkout it sits in, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (a Release build of the
dspaddr library, the dspaddr CLI and the perfbench program); build logs
go to stderr so the last line of stdout stays perfbench's JSON result.
perfbench replaces this process, so exactly one benchmark process runs.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(4, len(os.sched_getaffinity(0))))


def build():
    commands = [["cmake", "--build", BUILD, "-j", JOBS]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
            sys.exit(1)


def main():
    build()
    perfbench = os.path.join(BUILD, "perfbench")
    dspaddr = os.path.join(BUILD, "dspaddr", "dspaddr")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(perfbench, [perfbench, "--dspaddr", dspaddr] + sys.argv[1:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the alignment-service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Each run first builds perfbench/ (a CMake project that also builds the
repository libraries it drives, in Release) into .bench_build/; the
build is incremental after the first run. Build output goes to stderr.
The benchmark binary's stdout is passed through, so its last line is
the JSON result. --selftest runs the benchmark's own unit test and
checks BENCHMARK.json against the metrics the binary defines.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gmx_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", BUILD, "-j", "4",
           "--target", "gmx_perfbench", "perfbench_selftest"])


def quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=tmp))
    if done.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def selftest():
    """Unit test, then BENCHMARK.json against the binary's definitions."""
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode:
        return 1
    described = json.loads(subprocess.run([BINARY, "--describe"],
                                          capture_output=True, text=True,
                                          check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in described[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if want != have:
            print("BENCHMARK.json %s differs from gmx_perfbench --describe"
                  % key)
            ok = False
    print("BENCHMARK.json matches the binary" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run([
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--commit", commit(),
        "--trace-dir", os.path.join(BUILD, "traces"),
    ], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the ringdb benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
library and the perfbench program under .bench_build/; later runs rebuild
only what changed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The exit code is 0 only when the output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_id():
    """The commit when the checkout is a git repository, else a hash of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return "git:" + head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Checks the result line against BENCHMARK.json's metric list."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not result["correct"]:
        return ""  # a failed output check carries no metrics
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    if result["attempted"] < 1:
        return "nothing attempted"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no ringdb sources at %s/src" % ROOT)
    # Everything the run writes stays inside the checkout, compiler
    # temporaries included.
    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(work_dir, "tmp"))
    try:
        build(env)
        if args.selftest:
            sys.exit(subprocess.run([BINARY, "selftest"], env=env).returncode)
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", work_dir,
                   "--source-id", source_id()]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        lines = done.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except (ValueError, IndexError):
            sys.stdout.write(done.stdout)
            fail("run exited with %d and no result line" % done.returncode)
        print("\n".join(lines[:-1]))
        problem = validate(result, args.trace == 1)
        if problem:
            fail(problem)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] and done.returncode == 0 else 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

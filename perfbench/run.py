#!/usr/bin/env python3
"""Builds and runs the CLUSEQ end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cluster_few_large --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the library and the harness under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Generated inputs live under <build>/work/ and are removed when the
run ends; every run's full record (machine, per-run detail, result) is
kept in <build>/results/. The last line printed is the result object.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("cluster_few_large", "cluster_many_small", "classify_bank")
HERE = os.path.dirname(os.path.abspath(__file__))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("perfbench: cannot run %s: %s" % (cmd[0], e))
            return None
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(build_root, "work", "%s-%d" % (tag, os.getpid()))
    env = dict(os.environ)
    # `git describe` in the machine record must not look above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = done.stdout.splitlines()
    record = {"command": cmd[1:], "exit_code": done.returncode}
    for line in lines:
        if line.startswith("machine "):
            record["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("detail "):
            record["detail"] = json.loads(line[len("detail "):])
        elif line.startswith("{"):
            record["result"] = json.loads(line)
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

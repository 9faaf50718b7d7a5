#!/usr/bin/env python3
"""Build and run the repository's benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload design|simulate|serve \\
        --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds the perfbench program and the
printedd daemon from the checkout's sources into .bench_build/
(build output goes to standard error); later runs only bring that
build up to date. The program prints a human-readable report and, as
the last line of standard output, one JSON result. This script
refuses a result whose metric names or units differ from
BENCHMARK.json: it then exits 1 without printing it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
DAEMON = os.path.join(BUILD, "printed", "service", "printedd")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def build():
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
         "perfbench", "printedd"],
        stdout=sys.stderr, check=True, env=env)


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["design", "simulate", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seconds < 1
                               or args.seed < 0):
        parser.error("need --workload, --seconds >= 1 and --seed >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([PROGRAM, "--self-test"]).returncode

    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--printedd", DAEMON]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1

    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        sys.stdout.write(out)
        return proc.returncode or 1

    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected_units(args.trace):
        print("perfbench: metric names or units differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one benchmark run from the root of a nowlib checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe from source with dune into .bench_build/,
runs it, checks that the metrics it reports are exactly the ones
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and forwards its output.  The last line of
standard output is the result object.  Exits non-zero, without a
result, when the sources are missing, the build fails, the run fails a
correctness check or the metric set disagrees with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json", "perfbench"):
        if not os.path.exists(need):
            fail("run from the root of a nowlib checkout: %s is missing" % need)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)

    # Keep every file the run writes inside the checkout: no shared dune
    # cache, and the runtime-events ring of the traced run under BUILD_DIR.
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=BUILD_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)

    code, out = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", "./perfbench/bin/main.exe"],
        env, BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0:
        fail("build failed (exit %d)" % code)

    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", OUT_DIR],
        env, RUN_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark run failed (exit %d)" % code, code)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = declared["per_layer" if args.trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in want}:
        sys.stderr.write(out)
        fail("reported metrics disagree with BENCHMARK.json", 3)
    if not result["correct"]:
        sys.stderr.write(out)
        fail("run reported incorrect output", 4)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

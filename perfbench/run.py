#!/usr/bin/env python3
"""Build and run the lruleak repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds
perfbench/ (and through it the library) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only re-check the build.

With --trace 0 the set-up is measured in SETUP_RUNS extra cold
processes first, each pinned to the next CPU in turn, and their times
are pooled into the reported setup_s.
The last line of standard output is the result object.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("timesliced", "hyperthreaded", "crosscore_writes")
SETUP_RUNS = 15
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the lruleak sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(step[:2])} exited "
                 f"{done.returncode}")
    return os.path.join(build_dir, "perfbench")


def expected_file(workload):
    return os.path.join(HERE, "expected", workload + ".txt")


def run_binary(binary, args, quiet=False, cpu=None):
    """Run the binary, pinned to `cpu` if given; return (exit code,
    stdout lines)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return done.returncode, done.stdout.splitlines()


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (exit code, stdout lines)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--expected", expected_file(workload)] + list(extra)
    if trace == 0 and "--max-sessions" not in extra:
        # The set-up processes take the CPUs in turn, like the timed
        # loop's batches (see CpuRotation in src/main.cpp).
        cpus = sorted(os.sched_getaffinity(0))
        samples = []
        for k in range(SETUP_RUNS):
            code, lines = run_binary(binary, args + ["--setup-only"],
                                     cpu=cpus[k % len(cpus)])
            if code != 0 or not lines:
                return code or 1, lines
            samples.append(repr(json.loads(lines[-1])["setup_s"]))
        args += ["--setup-samples", ",".join(samples)]
    return run_binary(binary, args)


def self_test(binary):
    """A tiny run of each workload: digest path and metric names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("self-test: BENCHMARK.json workloads differ from run.py")
    scratch = os.path.join(os.path.dirname(binary), "selftest")
    os.makedirs(scratch, exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = measure(binary, workload, 1, 0, trace,
                                  ["--max-sessions", "3"])
            result = json.loads(lines[-1]) if code == 0 else {}
            printed = {k: v["unit"]
                       for k, v in result.get("metrics", {}).items()}
            if not (result.get("correct") and result.get("failed") == 0):
                problems.append(f"{workload} trace {trace}: not correct")
            if printed != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics "
                                f"{sorted(printed.items())} != BENCHMARK."
                                f"json {sorted(declared[trace].items())}")
        # Every digest is wrong: the warm-up and the three timed
        # sessions must all count as failed.
        with open(expected_file(workload)) as f:
            keys = [line.split()[0] for line in f if line.strip()]
        corrupt = os.path.join(scratch, workload + ".txt")
        with open(corrupt, "w") as f:
            f.writelines(f"{key} {'0' * 16}\n" for key in keys)
        code, lines = run_binary(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "0", "--max-sessions", "3", "--expected", corrupt],
            quiet=True)
        result = json.loads(lines[-1]) if code == 0 else {}
        if result.get("correct") is not False or result.get("failed") != 4:
            problems.append(f"{workload}: corrupted digests not detected "
                            f"({result})")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    code, lines = measure(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if code != 0:
        # No result line on failure: relay everything but a final JSON.
        for line in lines:
            if not line.startswith("{"):
                print(line)
        return code
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

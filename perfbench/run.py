#!/usr/bin/env python3
"""Serving benchmark of ptask: builds the driver and runs one workload.

Run from the root of a ptask source tree:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first call builds the library, the shipping ptask_served daemon and the
driver (Release) under $CARGO_TARGET_DIR (default .bench_build).  The last
line of standard output is the result object; records and traces go to
.bench_out/.  --selfcheck runs every workload at toy sizes, traced and
untraced, and checks the printed metric names against BENCHMARK.json, the
oracle against a flipped byte, and the decorated pass pipeline against
Pipeline::algorithm1.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# A run must end within 180 s; the driver gets what the build leaves.
RUN_LIMIT_S = 175.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds the driver and ptask_served."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "ptask_served"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "ptask", "tools", "ptask_served"))


def git_state():
    """Commit and dirty flag of the checkout; "unknown" outside git."""
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10)
        if commit.returncode != 0:
            return "unknown", "unknown"
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        return commit.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def run_driver(driver, served, workload, seed, seconds, trace, extra,
               limit_s):
    """Runs the driver in its own process group; returns (code, stdout)."""
    commit, dirty = git_state()
    command = [driver, "--served", served, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out-dir", OUT_DIR,
               "--git-commit", commit, "--git-dirty", dirty] + extra
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log("driver exceeded %.0f s and was stopped" % limit_s)
        return 1, ""
    return process.returncode, output


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def last_result(lines):
    """The result object on the last output line, or None."""
    if not lines or not lines[-1].startswith("{"):
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selfcheck(driver, served):
    spec = benchmark_spec()
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, output = run_driver(driver, served, workload, 1, 1, trace,
                                      ["--selfcheck"], 170)
            lines = output.strip().splitlines()
            label = "%s trace %d" % (workload, trace)
            result = last_result(lines)
            if result is None:
                failures.append(label + ": driver failed")
                continue
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if code != 0:
                failures.append("%s: driver exited with %d" % (label, code))
            names = list(result["metrics"].keys())
            if names != expected[trace]:
                failures.append("%s: metric names %s differ from "
                                "BENCHMARK.json %s" %
                                (label, names, expected[trace]))
            if not result["correct"] or result["failed"] != 0:
                failures.append(label + ": run not correct")
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    failures.append("%s: %s has no value" % (label, name))
    for failure in failures:
        print("perfbench: SELFCHECK FAILED: " + failure)
    print("perfbench: selfcheck " + ("failed" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    started = os.times().elapsed
    driver, served = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selfcheck:
        return selfcheck(driver, served)
    if args.workload is None:
        parser.error("--workload is required")
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload %r (have %s)" % (args.workload, names))
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    limit = RUN_LIMIT_S - (os.times().elapsed - started)
    if limit < 30:
        # A cold build used most of this run's time; the first run of a
        # checkout may take up to 900 s, so give the driver its full share.
        limit = RUN_LIMIT_S
    code, output = run_driver(driver, served, args.workload, args.seed,
                              args.seconds, args.trace, [], limit)
    sys.stdout.write(output)
    sys.stdout.flush()
    result = last_result(output.strip().splitlines())
    if result is None:
        log("driver failed with exit code %d" % code)
        return 1
    if code != 0 or not result["correct"] or result["failed"] != 0:
        # The result line is printed, but a wrong run is not a success.
        log("run not correct (exit code %d, %d failed)" %
            (code, result["failed"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the MIRO pipeline benchmark from source and runs it.

Run from the repository root:

    python3 mirobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mirobench/run.py --selftest

The first form configures and builds mirobench/ (which compiles ../src) into
.bench_build/ at the repository root, then runs one workload; the last line
of its standard output is the JSON result. Build output goes to standard
error so that standard output stays the benchmark's report.

The second form builds, runs the driver's unit self-test, runs every workload
in smoke mode (tiny topology, short run) with tracing off and on, and checks
that each run passes its correctness checks and emits exactly the metrics
BENCHMARK.json names.
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
WORKLOADS = ["avoid_internet", "tunnel_lifecycle", "inbound_te", "churn_reconverge"]
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources not found under src/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "mirobench",
                        "-j", "4"], stdout=sys.stderr) != 0:
        return None
    return os.path.join(BUILD_DIR, "mirobench")


def provenance():
    """(commit, source digest): the git commit when this is a git checkout,
    and a hash of every file the benchmark builds from."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "mirobench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_driver(binary, args):
    commit, source = provenance()
    return subprocess.run([binary] + args + ["--commit", commit,
                                             "--source-digest", source],
                          capture_output=True, text=True)


def selftest(binary):
    failures = []
    unit = subprocess.run([binary, "--selftest"], capture_output=True, text=True)
    print(unit.stdout, end="")
    if unit.returncode != 0:
        failures.append("driver unit self-test")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_driver(binary, ["--workload", workload, "--seed", "7",
                                         "--seconds", "0.5", "--trace",
                                         str(trace), "--smoke"])
            label = "%s --trace %d" % (workload, trace)
            lines = result.stdout.strip().splitlines()
            try:
                report = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(label + ": no JSON result (exit %d)"
                                % result.returncode)
                continue
            problems = []
            if result.returncode != 0:
                problems.append("exit %d" % result.returncode)
            if not report["correct"] or report["failed"] != 0:
                problems.append("%d of %d ops failed their checks" %
                                (report["failed"], report["attempted"]))
                problems += [l for l in lines if l.startswith("failed")][:3]
            if list(report["metrics"]) != expected[trace]:
                missing = set(expected[trace]) - set(report["metrics"])
                extra = set(report["metrics"]) - set(expected[trace])
                problems.append("metrics differ from BENCHMARK.json: missing %s,"
                                " extra %s" % (sorted(missing), sorted(extra)))
            print("%-32s %s" % (label, "ok" if not problems else "FAIL"))
            failures += [label + ": " + p for p in problems]
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny topology, for checking the benchmark itself")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary)
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        driver_args.append("--smoke")
    result = run_driver(binary, driver_args)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

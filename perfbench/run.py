#!/usr/bin/env python3
"""Fleet serving benchmark runner.

Builds perfbench/ (and the src/ modules it drives) into .bench_build/ at
the root of the checkout, then runs the fleet_bench binary.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload.  The last stdout line is the result JSON.
  python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
      Every workload once: prints each end-to-end metric with its unit and
      sample count; exits non-zero if any correctness gate fails.
  python3 perfbench/run.py --steadiness <repeats> [--workload <name>|all]
      Repeats each workload on seeds 1..repeats and prints, per metric, the
      median, the quartiles and the quartile spread against the bound in
      BENCHMARK.json.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fleet_bench")
OUT = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["steady_float", "wire_int8", "shift_start"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from a fallsense checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "fleet_bench", "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the binary; returns (exit code, parsed last line or None)."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--results", stem + ".json"]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(names, repeats, seconds):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in range(1, repeats + 1):
            code, result = run_once(name, seed, seconds, 0, echo=False)
            if code != 0 or not result or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (name, seed, code))
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print("%s: %d runs" % (name, repeats))
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            q1, q2, q3, spread = quartile_spread(vals)
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                ok = ok and spread <= bound
            print("  %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %s  %s"
                  % (metric, q2, q1, q3, 100 * spread,
                     "%.0f%%" % (100 * bound) if bound is not None else "-", verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="REPEATS")
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.exit("perfbench: unknown workload %r (choose from %s or all)"
                 % (args.workload, ", ".join(WORKLOADS)))
    build()
    if args.steadiness:
        return steadiness(names, args.steadiness, args.seconds)
    if len(names) == 1:
        code, _ = run_once(names[0], args.seed, args.seconds, args.trace)
        return code
    status = 0
    for name in names:
        print("== %s" % name)
        code, result = run_once(name, args.seed, args.seconds, args.trace)
        if code != 0 or not result or not result["correct"]:
            print("%s: correctness gate FAILED (exit %d)" % (name, code))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the vChain end-to-end benchmark.

One workload, one process:

    python3 perfbench/run.py --workload recent-hot --seed 1 --seconds 15 --trace 0

builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the workload against a fresh store
directory inside that build tree, forwards the run's "# " header lines and
prints its result JSON as the last line. --trace 1 reports the per-layer
metrics instead of the end-to-end ones.

Steadiness check:

    python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--seconds S]

runs each workload k times back to back with seeds 1..k (add --trace 1 for
the per-layer medians) and prints, for each metric, its median, quartiles,
min and max, and whether the quartile spread fits the bound in
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["recent-hot", "history-cold", "ingest-subscribe"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    bdir = build_dir()
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def source_digest():
    """Content hash of the sources the benchmark builds (src/ + perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (header lines, result)."""
    store = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(store, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--store", store],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s exited with code %d" % (workload,
                                                        proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    return lines[:-1], result


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(binary, workloads, k, seconds, trace):
    bounds = load_bounds()
    for workload in workloads:
        values = {}
        units = {}
        shares = []
        for seed in range(1, k + 1):
            _, result = run_once(binary, workload, seed, seconds, trace)
            if not result["correct"]:
                sys.exit("perfbench: %s seed %d produced wrong answers" %
                         (workload, seed))
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("# steadiness %s: %d runs, seeds 1..%d, %gs each, trace=%d, "
              "failed share %s" % (workload, k, k, seconds, trace,
                                   sorted(set(shares))))
        print("%-38s %10s %12s %12s %12s %12s %12s %8s %6s %s" % (
            "metric", "unit", "median", "q1", "q3", "min", "max", "spread",
            "bound", "fits"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            if bound is None or trace:
                fits = "-"
            elif name == "setup_s":
                fits = "n/a (spread unchecked)"
            else:
                fits = ("yes, <1/3 bound" if spread < bound / 3 else
                        "yes" if spread <= bound else "NO")
            print("%-38s %10s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f %6s %s"
                  % (name, units[name], med, q1, q3, min(vals), max(vals),
                     spread, "-" if bound is None else bound, fits))
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    if args.steadiness is None and args.workload is None:
        ap.error("--workload or --steadiness is required")

    binary = build()
    if args.steadiness is not None:
        if args.steadiness < 2:
            ap.error("--steadiness needs at least 2 runs")
        steadiness(binary, args.workloads.split(","), args.steadiness,
                   args.seconds, args.trace)
        return

    header, result = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    print("# source sha256:%s (src/ + perfbench/), git rev %s" %
          (source_digest(), git_rev()))
    for line in header:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload sssp-rand --seed 1 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the library from src/) into .bench_build/; later calls
only rebuild what changed. Each workload runs in its own process; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0,
the per-layer ones with --trace 1). --seconds defaults to the
run_seconds of BENCHMARK.json, the run length its bounds were measured
at. A record of the run's environment (hypervisor steal time, load
average, CPU count, seed, commit) is printed to standard error and
written to .bench_out/.

--workload all runs every workload, one process each. --unseen draws a
fresh random seed instead of --seed and reports it, so a claim can be
re-checked on a seed nobody tuned against. --smoke shrinks every input
for the benchmark's own tests. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import secrets
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sssp-rand", "sssp-road"]
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def run_seconds():
    """BENCHMARK.json's run_seconds: the default length of one run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; return False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}; "
            "run from the root of a full checkout")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def steal_seconds():
    """Hypervisor steal time summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest():
    """sha256 over src/ and perfbench/: names the code when git cannot."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace, smoke):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT_DIR]
    if smoke:
        cmd.append("--smoke")
    steal0, start = steal_seconds(), time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    steal = steal_seconds() - steal0
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])

    env = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "wall_s": round(time.time() - start, 3),
        "env.steal_s": round(steal, 3), "env.loadavg1": os.getloadavg()[0],
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    env_path = os.path.join(OUT_DIR, f"env-{workload}-seed{seed}-trace{trace}.json")
    with open(env_path, "w") as f:
        json.dump(env, f, indent=2)
    log("environment " + json.dumps(env))
    if trace:
        result["metrics"]["env.steal_s"] = {"value": env["env.steal_s"], "unit": "s"}
        result["metrics"]["env.loadavg1"] = {"value": env["env.loadavg1"], "unit": "count"}
    print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--unseen", action="store_true",
                        help="ignore --seed and draw a fresh random one")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if args.seconds is None:
        args.seconds = run_seconds()
    seed = secrets.randbelow(2**31) + 1000 if args.unseen else args.seed
    if args.unseen:
        log(f"unseen seed {seed} (pass --seed {seed} to repeat this run)")
    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = run_workload(workload, seed, args.seconds, args.trace,
                              args.smoke) or status
    return status


if __name__ == "__main__":
    sys.exit(main())

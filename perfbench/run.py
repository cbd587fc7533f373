#!/usr/bin/env python3
"""Build and run the vbatt end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper|fleet|svc --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench (CMake, into $CARGO_TARGET_DIR or
.bench_build/) from the sources in src/, runs one workload, and prints its
result as the last line of standard output. The full result, with the host
record, goes to .bench_out/<workload>-seed<N>-trace<T>.json and, for traced
runs, the span dump beside it.

--smoke runs every workload at tiny sizes, traced and untraced, and checks
that the metric names and units it prints are exactly those BENCHMARK.json
declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally; all output to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out / "perfbench"


# Pool lanes of the fleet workload. Its pooled run meets all its lanes at
# a barrier every epoch, so one lane whose vCPU the shared host deschedules
# stalls them all: at nproc (4) lanes its pass time swung by up to 3x in
# steal bursts. Two lanes keep the pool in the timed section with half the
# exposure.
FLEET_LANES = 2


def bench_env(workload):
    env = dict(os.environ)
    limit = nproc() if workload != "fleet" else min(nproc(), FLEET_LANES)
    try:
        threads = int(env.get("VBATT_THREADS", ""))
    except ValueError:
        threads = limit
    env["VBATT_THREADS"] = str(min(max(threads, 1), limit))
    return env


def git_record():
    """Revision and dirty flag, or None where the tree is not a git checkout."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except OSError:
        return None, None
    if rev is None:
        return None, None
    return rev, status is None or status != ""


def run_binary(binary, args, env):
    """Run perfbench; return (exit code, stdout lines)."""
    done = subprocess.run([str(binary), *args], env=env, stdout=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout.splitlines()


def run_workload(binary, opts):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    results = out_dir / f"{stem}.json"
    spans = out_dir / f"{stem}.spans.json"
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--results", str(results), "--spans", str(spans),
            "--work-dir", str(build_dir() / "work")]
    env = bench_env(opts.workload)
    code, lines = run_binary(binary, args, env)
    if code != 0 or not lines:
        log(f"perfbench exited with code {code}")
        return code or 1
    record = json.loads(results.read_text())
    rev, dirty = git_record()
    record["host"].update({"git_rev": rev, "git_dirty": dirty,
                           "VBATT_THREADS": env["VBATT_THREADS"]})
    results.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines), flush=True)
    return 0


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_binary(
                binary, ["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", str(trace), "--smoke", "--work-dir",
                         str(build_dir() / "work")], bench_env(workload))
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                units = sorted(k for k in emitted.keys() & declared[trace].keys()
                               if emitted[k] != declared[trace][k])
                problems.append(f"{where}: missing {missing} extra {extra} "
                                f"unit mismatch {units}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            log(f"smoke {where}: {len(emitted)} metrics")
    for problem in problems:
        log(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "fleet", "svc"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and None in (opts.workload, opts.seed, opts.seconds,
                                   opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not opts.smoke and (opts.seed < 0 or opts.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    return smoke(binary) if opts.smoke else run_workload(binary, opts)


if __name__ == "__main__":
    sys.exit(main())

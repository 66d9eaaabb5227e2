#!/usr/bin/env python3
"""Build and run the repo benchmark (README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The simulator is compiled from ../src into
.bench_build/perfbench (Release) on first use and rebuilt incrementally
after. The last line of stdout is the result object of barre_perfbench;
per-run records and Chrome traces land in .bench_out/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "barre_perfbench"
OUT = ROOT / ".bench_out"
# One run is sized to end well inside three minutes.
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cores():
    return max(1, len(os.sched_getaffinity(0)))


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    if not (ROOT / "src" / "harness" / "system.hh").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", str(cores())],
                       check=True, stdout=sys.stderr)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """Content hash of everything compiled, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.suffix in (".cc", ".hh", ".txt") and p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, smoke=False, out_dir=OUT):
    """Run one benchmark pass; return (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha(), "--src-digest", source_digest(),
           "--out-dir", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    if r.returncode < 0:
        log(f"{workload}: killed by signal {-r.returncode}")
        return 1, []
    return r.returncode, r.stdout.splitlines()


def self_test():
    """Smoke-size pass over every workload, checking the result shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            code, lines = run_binary(w["name"], 1, 1, trace, smoke=True,
                                     out_dir=OUT / "selftest")
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no result line")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if code != 0 or res["correct"] is not True or res["failed"]:
                problems.append(f"{where}: a correctness check failed")
            if not isinstance(res["attempted"], int) or res["attempted"] < 1:
                problems.append(f"{where}: attempted {res['attempted']}")
            got = res["metrics"]
            if set(got) != set(want[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK."
                                f"json: {sorted(set(got) ^ set(want[trace]))}")
            for name, m in got.items():
                if not NAME_RE.match(name):
                    problems.append(f"{where}: bad metric name {name!r}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {name} value {v!r}")
                if not m.get("unit") or m["unit"] != want[trace].get(name):
                    problems.append(f"{where}: {name} unit {m.get('unit')!r}")
            if trace:
                path = (OUT / "selftest" /
                        f"{w['name']}_seed1_trace1.trace.json")
                events = json.loads(path.read_text())["traceEvents"]
                if not events or any({"name", "ph", "ts", "dur"} - set(e)
                                     for e in events):
                    problems.append(f"{where}: malformed Chrome trace")
    for p in problems:
        log(f"self-test: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3
    if args.self_test:
        return self_test()
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

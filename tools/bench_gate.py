#!/usr/bin/env python3
"""Benchmark regression gate: this tree against a base git ref.

    python3 tools/bench_gate.py <base-ref>

Checks <base-ref> out into a temporary git worktree, then runs
`python3 perfbench/run.py --workload W --seed S --seconds 10` in that tree
and in this one for every workload in BENCHMARK.json, over PAIRS pairs that
alternate which side runs first. Both sides run on the same host, so no
stored baseline is needed. Exits 1 when, on any workload:

  - the head median of an end_to_end metric is worse than the base median
    by more than the metric's bound (relative change, in the direction its
    `better` field gives);
  - any run on either side reports `correct: false` or prints no result;
  - the head's runs fail more operations than the base's;
  - a metric is missing from either side.
"""

import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 3
SECONDS = 10


def parse_result(stdout):
    """The result object on the last stdout line of run.py, or None."""
    try:
        return json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None


def relative_change(base, head):
    if base == 0:
        return 0.0 if head == 0 else math.copysign(math.inf, head)
    return (head - base) / abs(base)


def decide(end_to_end, base_runs, head_runs):
    """Verdicts for one workload as (ok, message) pairs.

    end_to_end is BENCHMARK.json's list of {name, better, bound};
    base_runs and head_runs hold one parse_result() per run.
    """
    verdicts = []
    runs = {"base": base_runs, "head": head_runs}
    for side, results in runs.items():
        if not results:
            verdicts.append((False, f"{side}: no runs"))
        for i, r in enumerate(results):
            if r is None:
                verdicts.append((False, f"{side} run {i}: no result"))
            elif r.get("correct") is not True:
                verdicts.append((False, f"{side} run {i}: correct is "
                                        f"{r.get('correct')!r}"))
    if verdicts:
        return verdicts

    failed = {side: sum(r["failed"] for r in results)
              for side, results in runs.items()}
    verdicts.append((failed["head"] <= failed["base"],
                     f"failed: base {failed['base']}, head {failed['head']}"))

    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"].get(name, {}).get("value")
                         for r in results]
                  for side, results in runs.items()}
        missing = [side for side, v in values.items() if None in v]
        if missing:
            verdicts.append((False, f"{name}: missing on "
                                    f"{' and '.join(missing)}"))
            continue
        base = statistics.median(values["base"])
        head = statistics.median(values["head"])
        change = relative_change(base, head)
        worse = change if metric["better"] == "lower" else -change
        verdicts.append((worse <= metric["bound"],
                         f"{name}: base {base:.6g}, head {head:.6g} "
                         f"({change:+.1%}, {metric['better']} is better, "
                         f"bound {metric['bound']:.1%})"))
    return verdicts


def run(tree, workload, seed):
    r = subprocess.run([sys.executable, "perfbench/run.py",
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS)],
                       cwd=tree, stdout=subprocess.PIPE, text=True)
    return parse_result(r.stdout)


def gate(base_tree):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        runs = {base_tree: [], ROOT: []}
        for pair in range(PAIRS):
            order = [base_tree, ROOT] if pair % 2 == 0 else [ROOT, base_tree]
            for tree in order:
                runs[tree].append(run(tree, w["name"], pair + 1))
        for good, msg in decide(spec["end_to_end"], runs[base_tree],
                                runs[ROOT]):
            print(f"{'ok  ' if good else 'FAIL'} {w['name']} {msg}",
                  flush=True)
            ok = ok and good
    return ok


def main():
    if len(sys.argv) != 2:
        print("usage: bench_gate.py <base-ref>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bench_gate_") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                        "--detach", str(base_tree), sys.argv[1]],
                       check=True, stdout=sys.stderr)
        try:
            ok = gate(base_tree)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(base_tree)], check=True)
    print("bench gate: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

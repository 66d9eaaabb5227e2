#!/usr/bin/env python3
"""Repo-specific lint for the Barre Chord simulator.

Checks the properties the compiler cannot express but the simulator's
correctness story depends on:

  pragma-once      every header uses #pragma once (no ad-hoc guards).
  nondeterminism   no wall-clock or libc randomness in src/: results
                   must be bitwise reproducible across runs, machines,
                   and $BARRE_JOBS settings (std::rand, srand, time(),
                   system_clock, random_device, gettimeofday, ...).
  unordered-iter   no range-for over std::unordered_{map,set} in src/:
                   iteration order is implementation-defined and leaks
                   straight into stats/CSV output and event order.
  iostream-ban     no #include <iostream> outside tools/ and bench/;
                   sim code reports through sim/logging.hh so output
                   stays line-atomic under the parallel runner.
  naked-new        no naked new/delete in src/; ownership goes through
                   std::unique_ptr/containers.
  event-path-fn    no std::function in simulated-hardware code (src/
                   minus harness/ and workloads/): event callbacks are
                   sim/inline_fn.hh InlineFn, which stores the
                   per-access continuations inline. std::function remains
                   fine in the host-side runner/pool infrastructure.
  host-threads     std::thread, std::jthread and hardware_concurrency
                   appear in src/, bench/ and tools/ only in
                   src/harness/pool.cc, so the pool (runOnThreads,
                   parallelFor, defaultWorkers) stays the one place
                   that spawns host threads or sizes worker counts.
  one-l2-miss-path Mshr< appears in src/ only in src/tlb/mshr.hh and
                   src/gpu/l2_tlb_stage.{hh,cc}, so the L2 TLB stage
                   stays the one lookup/park/merge/fill path and a
                   second copy of it cannot grow back.
  one-event-engine QuadHeap< and TickBucket (the near window's per-tick
                   bucket) appear in src/ only in src/sim/domain.hh, so
                   EventQueue's per-domain window and heap stay the one
                   event engine and a second queue cannot grow back.
  one-walk-queue   deque< appears in src/iommu/ only in
                   src/iommu/walk_stage.{hh,cc}, so the walk stage stays
                   the one PW-queue / walker / PEC-scan path of the IOMMU
                   and the GMMUs and a second PW-queue cannot grow back.
  one-epoch-loop   EpochBarrier, or a call of runEpoch(, appears in src/,
                   bench/ and tools/ only in src/harness/domain_scheduler.cc
                   and EventQueue::run (src/sim/domain.hh, which also
                   defines runEpoch), so the scheduler's one barrier per
                   epoch stays the only loop that drains a partitioned
                   run and a second epoch loop cannot grow back.
  atomic-rmw       no atomic read-modify-write (fetch_add, fetch_sub,
                   fetch_or, fetch_and, exchange, compare_exchange_*,
                   as members or atomic_* free functions) in src/
                   outside src/harness/: the model keeps its counters
                   per domain, and a locked RMW on a line that every
                   chiplet's thread shares costs more than the work it
                   counts. The harness's pool and scheduler are the
                   one home for cross-thread synchronization.
  domain-owner     tools/domain_lint.py: every simulated-hardware class
                   carries a // domain-owner:host|chiplet|shared
                   annotation and direct cross-ownership members carry
                   a domain-cross:message marker (the static half of the
                   sim/domain_guard.hh partition-safety analysis).

A line may opt out of one rule with a trailing `lint-allow:<rule>`
comment.  `--format-check` additionally runs clang-format in dry-run
mode over the tree (skipped with a notice when clang-format is not
installed; CI installs it).

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

HEADER_GLOBS = ["src/**/*.hh", "bench/**/*.hh"]
CPP_GLOBS = [
    "src/**/*.hh", "src/**/*.cc",
    "tests/**/*.hh", "tests/**/*.cc",
    "bench/**/*.hh", "bench/**/*.cc",
    "tools/**/*.hh", "tools/**/*.cc",
    "examples/**/*.cpp",
]

# (rule, regex, message) applied to comment/string-stripped src/ code.
NONDETERMINISM = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("),
     "libc rand() is banned in sim code; use sim/rng.hh (seeded, "
     "deterministic)"),
    (re.compile(r"(?<![\w:.])time\s*\("),
     "wall-clock time() is banned in sim code; simulations must be "
     "reproducible"),
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is banned in sim code; results must "
     "not depend on wall-clock time"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is banned in sim code; seed sim/rng.hh "
     "deterministically"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b"),
     "wall-clock syscalls are banned in sim code"),
]

ALLOW_RE = re.compile(r"lint-allow:([\w-]+)")

STRING_OR_COMMENT_RE = re.compile(
    r'//[^\n]*'
    r'|/\*.*?\*/'
    r'|"(?:[^"\\\n]|\\.)*"'
    r"|'(?:[^'\\\n]|\\.)*'",
    re.DOTALL,
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return STRING_OR_COMMENT_RE.sub(blank, text)


def allowed_rules(line):
    return set(ALLOW_RE.findall(line))


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.violations = []

    def report(self, path, lineno, rule, message):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {message}")

    def files(self, globs):
        seen = set()
        for pattern in globs:
            for path in sorted(self.root.glob(pattern)):
                if path.is_file() and path not in seen:
                    seen.add(path)
                    yield path

    # -- rules -----------------------------------------------------------

    def check_pragma_once(self):
        for path in self.files(HEADER_GLOBS):
            text = path.read_text()
            if "#pragma once" not in text:
                self.report(path, 1, "pragma-once",
                            "header must use #pragma once")
            if re.search(r"^#ifndef BARRE_\w+\s*\n#define BARRE_",
                         text, re.MULTILINE):
                self.report(path, 1, "pragma-once",
                            "replace the include guard with #pragma once")

    def check_nondeterminism(self):
        for path in self.files(["src/**/*.hh", "src/**/*.cc"]):
            raw_lines = path.read_text().splitlines()
            stripped = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(stripped.splitlines(), 1):
                raw = raw_lines[lineno - 1]
                for regex, message in NONDETERMINISM:
                    if regex.search(line) and \
                            "nondeterminism" not in allowed_rules(raw):
                        self.report(path, lineno, "nondeterminism",
                                    message)

    def check_unordered_iteration(self):
        decl_re = re.compile(
            r"unordered_(?:map|set)\s*<[^;{}]*?>\s*(\w+)\s*[;{=]",
            re.DOTALL)
        for path in self.files(["src/**/*.hh", "src/**/*.cc"]):
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            names = set(decl_re.findall(text))
            if not names:
                continue
            loop_re = re.compile(
                r"for\s*\([^;)]*:\s*\*?(?:this->)?(%s)\s*\)"
                % "|".join(re.escape(n) for n in names))
            for lineno, line in enumerate(text.splitlines(), 1):
                m = loop_re.search(line)
                if m and "unordered-iter" not in \
                        allowed_rules(raw_lines[lineno - 1]):
                    self.report(
                        path, lineno, "unordered-iter",
                        f"range-for over unordered container "
                        f"'{m.group(1)}': iteration order is "
                        f"nondeterministic; iterate a sorted copy or "
                        f"use an ordered container")

    def check_iostream(self):
        for path in self.files(["src/**/*.hh", "src/**/*.cc",
                                "tests/**/*.cc", "examples/**/*.cpp"]):
            for lineno, line in enumerate(
                    path.read_text().splitlines(), 1):
                if re.match(r"\s*#\s*include\s*<iostream>", line) and \
                        "iostream-ban" not in allowed_rules(line):
                    self.report(
                        path, lineno, "iostream-ban",
                        "#include <iostream> is only allowed under "
                        "tools/ and bench/; use sim/logging.hh or "
                        "<cstdio>")

    def check_naked_new(self):
        new_re = re.compile(r"(?<![\w.>])new\s+[A-Za-z_:(]")
        delete_re = re.compile(r"(?<![\w.>])delete(\[\])?\s+[A-Za-z_:(*]")
        for path in self.files(["src/**/*.hh", "src/**/*.cc"]):
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                raw = raw_lines[lineno - 1]
                if "naked-new" in allowed_rules(raw):
                    continue
                if new_re.search(line):
                    self.report(path, lineno, "naked-new",
                                "naked new in sim code; use "
                                "std::make_unique/containers")
                if delete_re.search(line):
                    self.report(path, lineno, "naked-new",
                                "naked delete in sim code; use "
                                "std::unique_ptr/containers")

    def check_event_path_function(self):
        fn_re = re.compile(r"\bstd\s*::\s*function\s*<")
        include_re = re.compile(r"#\s*include\s*<functional>")
        # Host-side infrastructure (the parallel runner, workload
        # generation) is not on the simulated event path.
        exempt = ("src/harness/", "src/workloads/")
        for path in self.files(["src/**/*.hh", "src/**/*.cc"]):
            rel = path.relative_to(self.root).as_posix()
            if rel.startswith(exempt):
                continue
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                raw = raw_lines[lineno - 1]
                if "event-path-fn" in allowed_rules(raw):
                    continue
                if fn_re.search(line) or include_re.search(line):
                    self.report(
                        path, lineno, "event-path-fn",
                        "std::function on the event path; use "
                        "sim/inline_fn.hh InlineFn so scheduling "
                        "stays allocation-free")

    def check_host_threads(self):
        thread_re = re.compile(
            r"\bstd\s*::\s*j?thread\b|\bhardware_concurrency\b")
        home = "src/harness/pool.cc"
        for path in self.files(["src/**/*.hh", "src/**/*.cc",
                                "bench/**/*.hh", "bench/**/*.cc",
                                "tools/**/*.hh", "tools/**/*.cc"]):
            if path.relative_to(self.root).as_posix() == home:
                continue
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                if thread_re.search(line) and "host-threads" not in \
                        allowed_rules(raw_lines[lineno - 1]):
                    self.report(
                        path, lineno, "host-threads",
                        f"host threads are spawned and sized only in "
                        f"{home}; use runOnThreads/parallelFor/"
                        f"defaultWorkers")

    def check_single_home(self, rule, pattern, homes, message, scope="src"):
        """Report @p pattern anywhere in @p scope outside the @p homes."""
        regex = re.compile(pattern)
        for path in self.files([f"{scope}/**/*.hh", f"{scope}/**/*.cc"]):
            if path.relative_to(self.root).as_posix() in homes:
                continue
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                if regex.search(line) and rule not in \
                        allowed_rules(raw_lines[lineno - 1]):
                    self.report(path, lineno, rule, message)

    def check_one_l2_miss_path(self):
        self.check_single_home(
            "one-l2-miss-path", r"\bMshr\s*<",
            {"src/tlb/mshr.hh", "src/gpu/l2_tlb_stage.hh",
             "src/gpu/l2_tlb_stage.cc"},
            "MSHR files live only in src/gpu/l2_tlb_stage.*; "
            "route L2 misses through L2TlbStage")

    def check_one_event_engine(self):
        self.check_single_home(
            "one-event-engine", r"\bQuadHeap\s*<|\bTickBucket\b",
            {"src/sim/domain.hh"},
            "event heaps and tick buckets live only in src/sim/domain.hh; "
            "schedule through EventQueue")

    def check_one_walk_queue(self):
        self.check_single_home(
            "one-walk-queue", r"\bdeque\s*<",
            {"src/iommu/walk_stage.hh", "src/iommu/walk_stage.cc"},
            "PW-queues live only in src/iommu/walk_stage.*; queue walks "
            "through WalkStage", scope="src/iommu")

    def check_one_epoch_loop(self):
        loop_re = re.compile(r"\bEpochBarrier\b|\brunEpoch\s*\(")
        home = "src/harness/domain_scheduler.cc"
        # src/sim/domain.hh may name runEpoch( only where it defines it
        # and where EventQueue::run drains a default queue through it.
        engine = "src/sim/domain.hh"
        engine_ok = re.compile(
            r"^\s*(?:runEpoch\(std::uint32_t d, Tick horizon\)"
            r"|return runEpoch\(0, max_tick\);)\s*$")
        for path in self.files(["src/**/*.hh", "src/**/*.cc",
                                "bench/**/*.hh", "bench/**/*.cc",
                                "tools/**/*.hh", "tools/**/*.cc"]):
            rel = path.relative_to(self.root).as_posix()
            if rel == home:
                continue
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                if not loop_re.search(line):
                    continue
                if rel == engine and "EpochBarrier" not in line and \
                        engine_ok.match(line):
                    continue
                if "one-epoch-loop" in allowed_rules(raw_lines[lineno - 1]):
                    continue
                self.report(
                    path, lineno, "one-epoch-loop",
                    f"epochs are driven only by {home}; run a "
                    f"partitioned queue through DomainScheduler::run")

    def check_atomic_rmw(self):
        rmw_re = re.compile(
            r"(?:\.|->)\s*(?:fetch_(?:add|sub|or|and|xor)|exchange"
            r"|compare_exchange_(?:weak|strong))\s*\("
            r"|\batomic_(?:fetch_(?:add|sub|or|and|xor)|exchange"
            r"|compare_exchange_(?:weak|strong))(?:_explicit)?\s*\(")
        for path in self.files(["src/**/*.hh", "src/**/*.cc"]):
            if path.relative_to(self.root).as_posix().startswith(
                    "src/harness/"):
                continue
            raw_lines = path.read_text().splitlines()
            text = strip_comments_and_strings("\n".join(raw_lines))
            for lineno, line in enumerate(text.splitlines(), 1):
                if rmw_re.search(line) and "atomic-rmw" not in \
                        allowed_rules(raw_lines[lineno - 1]):
                    self.report(
                        path, lineno, "atomic-rmw",
                        "atomic read-modify-write outside src/harness/; "
                        "keep model counters per domain or owner")

    def check_domain_ownership(self):
        lint = self.root / "tools" / "domain_lint.py"
        if not lint.is_file():
            return
        proc = subprocess.run(
            [sys.executable, str(lint), "--root", str(self.root)],
            capture_output=True, text=True)
        self.violations.extend(
            line for line in proc.stdout.splitlines() if line.strip())
        if proc.returncode not in (0, 1):
            self.violations.append(
                f"[domain-owner] domain_lint.py failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()}")

    # -- clang-format ----------------------------------------------------

    def check_format(self):
        binary = shutil.which("clang-format")
        if not binary:
            print("lint: clang-format not found; skipping format check",
                  file=sys.stderr)
            return
        files = [str(p) for p in self.files(CPP_GLOBS)]
        proc = subprocess.run(
            [binary, "--dry-run", "-Werror", "--style=file", *files],
            cwd=self.root, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()
            for line in tail[:40]:
                print(line, file=sys.stderr)
            self.violations.append(
                f"[format] clang-format --dry-run failed for the tree "
                f"({len(tail)} diagnostic lines)")

    def run(self, format_check=False):
        self.check_pragma_once()
        self.check_nondeterminism()
        self.check_unordered_iteration()
        self.check_iostream()
        self.check_naked_new()
        self.check_event_path_function()
        self.check_host_threads()
        self.check_one_l2_miss_path()
        self.check_one_event_engine()
        self.check_one_walk_queue()
        self.check_one_epoch_loop()
        self.check_atomic_rmw()
        self.check_domain_ownership()
        if format_check:
            self.check_format()
        return self.violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent
                        .parent, help="repository root to lint")
    parser.add_argument("--format-check", action="store_true",
                        help="also run clang-format --dry-run -Werror")
    args = parser.parse_args()

    root = Path(args.root)
    if not (root / "src").is_dir():
        print(f"lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    violations = Linter(root).run(format_check=args.format_check)
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

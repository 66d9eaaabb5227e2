#!/usr/bin/env python3
"""Static half of the domain-ownership analysis (sim/domain_guard.hh).

Every class defined in a simulated-hardware component directory must
declare which sequencing domain owns its instances, via a comment in
the block right above the class definition:

    // domain-owner:chiplet   owned by one chiplet's tag
    // domain-owner:host      owned by the host/IOMMU/driver tag
    // domain-owner:shared    a message path or immutable-after-setup
                              state; legitimately touched from any tag

On top of the annotations, member declarations are checked for direct
cross-ownership references: a host-owned class holding a pointer or
reference to a chiplet-owned component (or vice versa) is how code
bypasses the Link/message paths and mutates foreign state mid-epoch —
exactly what keeps a configuration off the partitionable set. Such a
member must assert that every use goes over a Link/Interconnect/Pcie
hop:

    // domain-cross:message — every use rides Interconnect::send.
    std::vector<Tlb *> l2_tlbs_;

`domain-cross:message` is the only accepted marker; a synchronous
crossing has no escape hatch and must be routed over a message path.
A member-line `domain-owner:<d>` overrides the referenced class's
default ownership for instance-level decisions (e.g. a host-bound copy
of a chiplet class). A line may opt out entirely with
`lint-allow:domain-owner`.

Usage:
    domain_lint.py [--root DIR]          lint the repo's component dirs
    domain_lint.py [--root DIR] FILE...  lint just FILEs (fixture mode)

Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

# Directories whose classes model simulated hardware (or the host-side
# software the simulation schedules) and therefore have an owner.
COMPONENT_DIRS = [
    "src/tlb",
    "src/cache",
    "src/mem",
    "src/noc",
    "src/iommu",
    "src/core",
    "src/driver",
    "src/gpu",
    "src/baselines",
    "src/filters",
    "src/workloads",
]

OWNER_RE = re.compile(r"domain-owner:(host|chiplet|shared)\b")
CROSS_RE = re.compile(r"domain-cross:message\b")
ALLOW_RE = re.compile(r"lint-allow:domain-owner\b")
CLASS_RE = re.compile(r"^class\s+(\w+)")
BAD_OWNER_RE = re.compile(r"domain-owner:(?!host\b|chiplet\b|shared\b)(\S+)")


def component_files(root):
    files = []
    for d in COMPONENT_DIRS:
        files.extend(sorted((root / d).glob("*.hh")))
    return files


def preceding_comment_block(lines, idx):
    """The contiguous // comment block right above lines[idx].

    A template<...> header between the comment and the declaration is
    skipped so annotated class templates work.
    """
    block = []
    j = idx - 1
    while j >= 0 and lines[j].lstrip().startswith("template"):
        j -= 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        block.append(lines[j])
        j -= 1
    return block


class DomainLint:
    def __init__(self, root):
        self.root = root
        self.violations = []
        # class name -> (owner, path, lineno)
        self.owners = {}

    def report(self, path, lineno, message):
        try:
            rel = path.relative_to(self.root)
        except ValueError:
            rel = path
        self.violations.append(f"{rel}:{lineno}: [domain-owner] {message}")

    # -- pass 1: class annotations ---------------------------------------

    def collect_owners(self, path, lines):
        for i, line in enumerate(lines):
            m = CLASS_RE.match(line)
            if not m or line.rstrip().endswith(";"):
                continue  # skip forward declarations
            name = m.group(1)
            block = preceding_comment_block(lines, i)
            block_text = "\n".join(block)
            if ALLOW_RE.search(block_text) or ALLOW_RE.search(line):
                continue
            bad = BAD_OWNER_RE.search(block_text)
            if bad:
                self.report(path, i + 1,
                            f"class {name}: unknown domain-owner "
                            f"'{bad.group(1)}' (want host, chiplet or "
                            f"shared)")
                continue
            owner = OWNER_RE.search(block_text)
            if not owner:
                self.report(path, i + 1,
                            f"class {name} has no // domain-owner: "
                            f"annotation (host, chiplet or shared) in "
                            f"the comment block above its definition")
                continue
            self.owners[name] = (owner.group(1), path, i + 1)

    # -- pass 2: cross-ownership members ---------------------------------

    def check_members(self, path, lines):
        if not self.owners:
            return
        name_re = re.compile(
            r"\b(%s)\b" % "|".join(re.escape(n) for n in self.owners))
        holder = None
        holder_owner = None
        for i, line in enumerate(lines):
            m = CLASS_RE.match(line)
            if m and not line.rstrip().endswith(";"):
                holder = m.group(1)
                holder_owner = self.owners.get(holder, (None,))[0]
                continue
            if line.startswith("};"):
                holder = None
                continue
            if holder is None or holder_owner is None:
                continue
            stripped = line.strip()
            # Member declarations only: a terminated statement that
            # names another component class but is not a function
            # declaration/call or an access-specifier/comment line.
            if not stripped.endswith(";") or "(" in stripped:
                continue
            if stripped.startswith(("//", "*", "/*")):
                continue
            ref = name_re.search(stripped)
            if not ref or ref.group(1) == holder:
                continue
            context = stripped + "\n" + "\n".join(
                preceding_comment_block(lines, i))
            if ALLOW_RE.search(context):
                continue
            override = OWNER_RE.search(context)
            member_owner = (override.group(1) if override
                            else self.owners[ref.group(1)][0])
            if "shared" in (holder_owner, member_owner):
                continue
            if holder_owner == member_owner:
                continue
            if CROSS_RE.search(context):
                continue
            self.report(
                path, i + 1,
                f"class {holder} ({holder_owner}-owned) holds a direct "
                f"reference to {member_owner}-owned {ref.group(1)} "
                f"without a domain-cross:message marker — route "
                f"accesses over a Link/message path and say "
                f"domain-cross:message")

    def run(self, files):
        texts = {}
        for path in files:
            texts[path] = path.read_text().splitlines()
        for path, lines in texts.items():
            self.collect_owners(path, lines)
        for path, lines in texts.items():
            self.check_members(path, lines)
        return self.violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root",
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root")
    parser.add_argument("files", nargs="*",
                        help="lint only these headers (fixture mode)")
    args = parser.parse_args()

    root = Path(args.root)
    if args.files:
        files = [Path(f) for f in args.files]
        missing = [f for f in files if not f.is_file()]
        if missing:
            print(f"domain_lint: no such file: {missing[0]}",
                  file=sys.stderr)
            return 2
    else:
        if not (root / "src").is_dir():
            print(f"domain_lint: {root} does not look like the repo "
                  f"root", file=sys.stderr)
            return 2
        files = component_files(root)

    violations = DomainLint(root).run(files)
    for v in violations:
        print(v)
    if violations:
        print(f"domain_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

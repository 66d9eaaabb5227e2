#!/usr/bin/env bash
# One batch for many figures: `figures A B` must print to stdout
# exactly what `figures A` and then `figures B` print, while running
# every shared cell once. tab1_mpki's baseline column (19 apps) is also
# fig16_ats's baseline column, so the joint run has 19 fewer per-cell
# progress lines on stderr than the two separate runs together.
#
# Usage: figures_union_test.sh <figures>
set -eu

figures="${1:?usage: figures_union_test.sh <figures>}"
export BARRE_SCALE=0.02 BARRE_JOBS=2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$figures" tab1_mpki >"$work/a.out" 2>"$work/a.err"
"$figures" fig16_ats >"$work/b.out" 2>"$work/b.err"
"$figures" tab1_mpki fig16_ats >"$work/ab.out" 2>"$work/ab.err"

if ! cat "$work/a.out" "$work/b.out" | cmp - "$work/ab.out"; then
    echo "FAIL: joint stdout differs from the two runs concatenated" >&2
    exit 1
fi

cells() { grep -c ' cycles$' "$1"; }
separate=$(($(cells "$work/a.err") + $(cells "$work/b.err")))
joint=$(cells "$work/ab.err")
if [ $((separate - joint)) -ne 19 ]; then
    echo "FAIL: $separate separate vs $joint joint cells (want 19 fewer)" >&2
    exit 1
fi

echo "figures union OK ($separate separate cells, $joint joint)"

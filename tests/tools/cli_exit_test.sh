#!/usr/bin/env bash
# Contract test for clean CLI failures: each malformed input below must
# end in exit code 1 with a "fatal: ..." message naming the problem on
# stderr, never in std::terminate's SIGABRT (rc 134). Also checks that
# a recorded trace replays in a fresh process exactly as the recorded
# run, that barre_sim's output does not depend on where --mode stands
# among the other flags, and that each mode name means one config.
#
# Usage: cli_exit_test.sh <barre_sim> <sweep> <merge_csv> <figures>
set -u -o pipefail

sim="${1:?usage: cli_exit_test.sh <barre_sim> <sweep> <merge_csv> <figures>}"
sweep="${2:?missing <sweep>}"
merge="${3:?missing <merge_csv>}"
figures="${4:?missing <figures>}"
fail=0

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo garbage >"$work/bad_shard.csv"

# expect_fatal <stderr fragment> <command...>
expect_fatal() {
    local want="$1"
    shift
    local err rc
    err="$("$@" 2>&1 >/dev/null)"
    rc=$?
    if [ "$rc" -eq 1 ] && [[ "$err" == *"fatal: "*"$want"* ]]; then
        echo "ok   rc 1: $*"
    else
        echo "FAIL rc $rc (want 1, stderr containing '$want'): $*"
        echo "$err" | sed 's/^/     /'
        fail=1
    fi
}

expect_fatal "unknown application 'nope'" "$sim" --app nope
expect_fatal "empty term in scenario spec 'gups+'" "$sim" --scenario 'gups+'
expect_fatal "--domains: 'x' is not" "$sim" --domains x
expect_fatal "unknown application 'nope'" "$sweep" --apps nope
expect_fatal "--scale: 'x' is not a number" "$sweep" --scale x
expect_fatal "not a sweep shard file" "$merge" "$work/bad_shard.csv"
expect_fatal "unknown figure 'no_such_figure'" "$figures" no_such_figure
expect_fatal "BARRE_SCALE: 'x' is not a number" env BARRE_SCALE=x "$figures" tab2_params
expect_fatal "unknown mode 'nope'" "$sim" --mode nope
expect_fatal "unknown mode 'nope'" "$sweep" --modes nope
expect_fatal "iommu.multicast needs Barre translation" \
    "$sim" --mode baseline --multicast --app gups --scale 0.02
expect_fatal "iommu.multicast needs Barre translation" \
    "$sim" --mode barre --gmmu --multicast --app gups --scale 0.02
expect_fatal "demand paging is modeled on the IOMMU platform only" \
    "$sim" --gmmu --demand-paging --app gups --scale 0.02
expect_fatal "migration is modeled on the IOMMU platform only" \
    "$sim" --gmmu --migration --app gups --scale 0.02

# A trace is one app's streams: it cannot carry a scenario.
expect_fatal "--trace/--record-trace conflict with --scenario/--tenants" \
    "$sim" --trace "$work/none.trace" --scenario cov+atax
expect_fatal "--trace/--record-trace conflict with --scenario/--tenants" \
    "$sim" --record-trace "$work/none.trace" --tenants 4

# Record, then replay in a fresh process: the replay allocates the
# app's buffers and places its CTAs exactly as the recorded run did,
# so it prints the same stats dump (the lines after the metric table).
if "$sim" --app gups --scale 0.02 --record-trace "$work/gups.trace" \
        >/dev/null 2>&1; then
    echo "ok   rc 0: record gups trace"
else
    echo "FAIL recording a gups trace"
    fail=1
fi
stats_dump() { sed -n '/^sim\.ticks /,$p'; }
for mode in "--mode baseline" "--mode fbarre --demand-paging"; do
    # shellcheck disable=SC2086
    if ! "$sim" --trace "$work/gups.trace" --app gups $mode --stats \
            2>&1 | stats_dump >"$work/replay.stats"; then
        echo "FAIL replaying the gups trace $mode"
        fail=1
        continue
    fi
    # shellcheck disable=SC2086
    "$sim" --app gups --scale 0.02 $mode --stats 2>&1 |
        stats_dump >"$work/run.stats"
    if [ -s "$work/run.stats" ] && cmp -s "$work/run.stats" "$work/replay.stats"; then
        echo "ok   replay of the gups trace $mode dumps the run's stats"
    else
        echo "FAIL the gups trace replay $mode differs from its run"
        diff "$work/run.stats" "$work/replay.stats" | head -5 | sed 's/^/     /'
        fail=1
    fi
done
expect_fatal "lies in no buffer of atax" \
    "$sim" --trace "$work/gups.trace" --app atax

# expect_same_output <args A> -- <args B>: barre_sim prints the same
# for both command lines.
expect_same_output() {
    local a=() b=()
    while [ "$1" != "--" ]; do
        a+=("$1")
        shift
    done
    shift
    b=("$@")
    if cmp -s <("$sim" "${a[@]}" --stats 2>&1) <("$sim" "${b[@]}" --stats 2>&1); then
        echo "ok   same output: ${a[*]} | ${b[*]}"
    else
        echo "FAIL different output: ${a[*]} | ${b[*]}"
        fail=1
    fi
}

small=(--app gups --scale 0.02)
expect_same_output --ptws 64 --mode baseline "${small[@]}" -- \
    --mode baseline --ptws 64 "${small[@]}"
expect_same_output --merge 1 --mode fbarre "${small[@]}" -- \
    --mode fbarre --merge 1 "${small[@]}"
# One meaning per mode name: fbarre is F-Barre-2Merge, fbarre4 is
# F-Barre-4Merge ...
expect_same_output --mode fbarre "${small[@]}" -- \
    --mode fbarre --merge 2 "${small[@]}"
expect_same_output --mode fbarre4 "${small[@]}" -- \
    --mode fbarre --merge 4 "${small[@]}"
# ... and --merge still takes effect: --merge 1 runs NoMerge.
if cmp -s <("$sim" --mode fbarre --merge 1 "${small[@]}" --stats) \
          <("$sim" --mode fbarre "${small[@]}" --stats); then
    echo "FAIL --merge 1 changed nothing under --mode fbarre"
    fail=1
else
    echo "ok   --merge 1 takes effect under --mode fbarre"
fi

exit "$fail"

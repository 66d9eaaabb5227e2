#!/usr/bin/env bash
# Contract test for clean CLI failures: each malformed input below must
# end in exit code 1 with a "fatal: ..." message naming the problem on
# stderr, never in std::terminate's SIGABRT (rc 134).
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

exit "$fail"

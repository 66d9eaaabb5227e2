#!/usr/bin/env bash
# Contract test for `barre_sim --stats`: the stats dump (the block after
# the last blank line of the output) is one "name value" pair per line
# with unique names and sim.ticks first, and a serial-tagged run
# (--domains 1) dumps byte-identical stats to a partitioned one
# (--domains 5).
#
# Usage: stats_cli_test.sh <barre_sim>
set -u -o pipefail

sim="${1:?usage: stats_cli_test.sh <barre_sim>}"
fail=0

check() {
    local label="$1"
    shift
    if "$@"; then
        echo "ok   $label"
    else
        echo "FAIL $label"
        fail=1
    fi
}

# The dump section of one run's output.
dump_of() {
    "$sim" --app cov --mode fbarre --scale 0.05 --domains "$1" --stats |
        awk 'NF == 0 { block = ""; next } { block = block $0 "\n" }
             END { printf "%s", block }'
}

d1="$(dump_of 1)" || { echo "FAIL --domains 1 run"; exit 1; }
d5="$(dump_of 5)" || { echo "FAIL --domains 5 run"; exit 1; }

for d in 1 5; do
    dump="$d1"
    [ "$d" = 5 ] && dump="$d5"
    check "domains $d: dump is non-empty" test -n "$dump"
    check "domains $d: every line is 'name value'" test -z \
        "$(grep -Ev '^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+ -?[0-9][0-9.e+-]*$' \
            <<< "$dump")"
    check "domains $d: names are unique" test -z \
        "$(cut -d' ' -f1 <<< "$dump" | sort | uniq -d)"
    check "domains $d: sim.ticks comes first" \
        grep -q '^sim\.ticks [0-9][0-9]*$' <<< "$(head -n1 <<< "$dump")"
done
check "domains 1 and 5 dump identical stats" test "$d1" = "$d5"

exit "$fail"

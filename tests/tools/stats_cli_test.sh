#!/usr/bin/env bash
# Contract test for `barre_sim --stats`: the stats dump (the block after
# the last blank line of the output) is one "name value" pair per line
# with unique names and sim.ticks first, and a serial-tagged run
# (--domains 1) dumps byte-identical stats to a partitioned one
# (--domains 5), whether the partitioned epochs run on the worker pool
# or on the calling thread alone (--sim-threads 1). A gups run, which
# parks tens of thousands of requests on full L2-TLB MSHR files, repeats
# the identity check over the batched retry path. A gups run with
# demand paging and --validate, whose chiplet-side checks walk the page
# table while the host faults pages in, must partition silently (no
# warn: line) and dump the same stats as one domain.
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

# The dump section of one F-Barre run of app $1; the remaining
# arguments pass through after --domains.
dump_of() {
    local app="$1"
    shift
    "$sim" --app "$app" --mode fbarre --scale 0.05 --domains "$@" --stats |
        awk 'NF == 0 { block = ""; next } { block = block $0 "\n" }
             END { printf "%s", block }'
}

d1="$(dump_of cov 1)" || { echo "FAIL --domains 1 run"; exit 1; }
d5="$(dump_of cov 5)" || { echo "FAIL --domains 5 run"; exit 1; }
d5t1="$(dump_of cov 5 --sim-threads 1)" ||
    { echo "FAIL --domains 5 --sim-threads 1 run"; exit 1; }

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
check "domains 5 on one worker dumps identical stats" test "$d5t1" = "$d5"

g1="$(dump_of gups 1)" || { echo "FAIL gups --domains 1 run"; exit 1; }
g5="$(dump_of gups 5)" || { echo "FAIL gups --domains 5 run"; exit 1; }
g5t1="$(dump_of gups 5 --sim-threads 1)" ||
    { echo "FAIL gups --domains 5 --sim-threads 1 run"; exit 1; }
retries="$(awk '$1 ~ /^gpu[0-9]+\.l2tlb\.mshr_retries$/ { s += $2 }
                END { print s + 0 }' <<< "$g1")"
check "gups: requests parked on full MSHRs ($retries)" \
    test "$retries" -gt 0
check "gups: domains 1 and 5 dump identical stats" test "$g1" = "$g5"
check "gups: domains 5 on one worker dumps identical stats" \
    test "$g5t1" = "$g5"

v1="$(dump_of gups 1 --demand-paging --validate)" ||
    { echo "FAIL validated demand paging --domains 1 run"; exit 1; }
v5_all="$("$sim" --app gups --mode fbarre --scale 0.05 --domains 5 \
    --demand-paging --validate --stats 2>&1)" ||
    { echo "FAIL validated demand paging --domains 5 run"; exit 1; }
v5="$(awk 'NF == 0 { block = ""; next } { block = block $0 "\n" }
           END { printf "%s", block }' <<< "$v5_all")"
faults="$(awk '$1 == "iommu.page_faults" { print $2 }' <<< "$v1")"
check "demand paging: pages faulted in (${faults:-0})" \
    test "${faults:-0}" -gt 0
check "demand paging + validate: domains 5 prints no warning" \
    test -z "$(grep 'warn:' <<< "$v5_all")"
check "demand paging + validate: domains 1 and 5 dump identical stats" \
    test "$v1" = "$v5"

exit "$fail"

#!/usr/bin/env bash
# Runs the A04 multi-tenant churn figure at smoke scale: `figures
# a04_tenants` must exit 0 and print exactly one row per (config,
# tenants, churn) cell — 3 policy configs x {16, 64} tenants x
# {0.5, 2} churn, plus each config's 8-tenant, churn-2 "-smoke" cell —
# with a positive runtime and slowdown.
#
# Usage: a04_figure_test.sh <figures>
set -u -o pipefail

figures="${1:?usage: a04_figure_test.sh <figures>}"

out="$(BARRE_SCALE=0.02 "$figures" a04_tenants 2>/dev/null)"
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL figures a04_tenants exited $rc"
    exit 1
fi

want=()
for cfg in fbarre fbarre+tlb_part fbarre+fair_pw; do
    for n in 16 64; do
        for churn in 0.50 2.00; do
            want+=("$cfg $n $churn")
        done
    done
done
for cfg in fbarre fbarre+tlb_part fbarre+fair_pw; do
    want+=("$cfg-smoke 8 2.00")
done

# Data rows: config, tenants, churn, runtime, slow-mean, slow-max,
# p99-max.
rows="$(awk '$1 ~ /^fbarre/ && NF == 7' <<<"$out")"
fail=0
for w in "${want[@]}"; do
    n="$(awk -v w="$w" '$1 " " $2 " " $3 == w && $4 > 0 && $5 > 0' \
        <<<"$rows" | wc -l)"
    if [ "$n" -ne 1 ]; then
        echo "FAIL $n rows for cell '$w' (want 1 with runtime and slowdown > 0)"
        fail=1
    fi
done
got="$(wc -l <<<"$rows")"
if [ "$got" -ne "${#want[@]}" ]; then
    echo "FAIL $got data rows, want ${#want[@]}"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "$out"
    exit 1
fi
echo "ok   ${#want[@]} A04 cells"

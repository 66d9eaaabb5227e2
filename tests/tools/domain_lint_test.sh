#!/usr/bin/env bash
# Contract test for tools/domain_lint.py: the negative fixture must
# produce exactly the expected violations (exit 1), the positive
# fixture must be clean (exit 0), and the real tree must be clean.
#
# Usage: domain_lint_test.sh <repo-root>
set -u

root="${1:?usage: domain_lint_test.sh <repo-root>}"
lint="$root/tools/domain_lint.py"
fixtures="$root/tests/tools/domain_lint_fixture"
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

# --- negative fixture: exit 1 with all three expected violations ------
out="$(python3 "$lint" --root "$root" "$fixtures/bad.hh" 2>&1)"
status=$?
check "bad.hh exits 1" test "$status" -eq 1
check "bad.hh flags the unannotated class" \
    grep -q "class Gadget has no // domain-owner" <<< "$out"
check "bad.hh flags the unmarked host->chiplet member" \
    grep -q "WidgetDirectory (host-owned) holds a direct reference" \
    <<< "$out"
check "bad.hh rejects the sync-acknowledged member too" \
    test "$(grep -c "WidgetDirectory (host-owned) holds a direct" \
        <<< "$out")" -eq 2
check "bad.hh reports exactly 3 violations" \
    grep -q "3 violation(s)" <<< "$out"

# --- positive fixture: clean ------------------------------------------
out="$(python3 "$lint" --root "$root" "$fixtures/good.hh" 2>&1)"
status=$?
check "good.hh exits 0" test "$status" -eq 0
check "good.hh produces no output" test -z "$out"

# --- whole tree: stays clean -----------------------------------------
out="$(python3 "$lint" --root "$root" 2>&1)"
status=$?
check "component tree is domain-lint clean" test "$status" -eq 0
if [ -n "$out" ]; then
    echo "$out"
fi

# --- usage error path -------------------------------------------------
python3 "$lint" --root "$root" "$fixtures/does_not_exist.hh" \
    > /dev/null 2>&1
check "missing file exits 2" test $? -eq 2

exit "$fail"

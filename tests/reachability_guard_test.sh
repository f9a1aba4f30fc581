#!/usr/bin/env sh
# Exercises tools/check_reachability.sh on a scratch copy of the source
# trees: the copy as checked in must pass, an orphan src/ header must fail
# the check and be named, and the same header passes again (with its
# same-stem .cpp) once an example includes it.
#
# Usage: tests/reachability_guard_test.sh [repo-root]
set -eu

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for dir in src bench tools examples mirobench; do
    cp -R "$root/$dir" "$work/"
done

fail() { echo "reachability guard test: $*" >&2; exit 1; }

sh "$work/tools/check_reachability.sh" > /dev/null 2>&1 ||
    fail "the checked-in tree should pass"

mkdir -p "$work/src/orphan"
printf '#pragma once\nint orphan();\n' > "$work/src/orphan/orphan.hpp"
printf '#include "orphan/orphan.hpp"\nint orphan() { return 1; }\n' \
    > "$work/src/orphan/orphan.cpp"
if sh "$work/tools/check_reachability.sh" > "$work/out" 2>&1; then
    fail "an orphan src/ file should fail the check"
fi
grep -q 'unreached by any bench, tool or example: src/orphan/orphan.hpp' \
    "$work/out" || fail "the orphan header is not named"
grep -q 'unreached by any bench, tool or example: src/orphan/orphan.cpp' \
    "$work/out" || fail "the orphan source is not named"
grep -q '2 src/ file(s)' "$work/out" || fail "the count should be 2"

printf '#include "orphan/orphan.hpp"\nint main() { return orphan(); }\n' \
    > "$work/examples/uses_orphan.cpp"
sh "$work/tools/check_reachability.sh" > /dev/null 2>&1 ||
    fail "an included header and its .cpp should count as reached"
echo "reachability guard test: ok"

#!/usr/bin/env sh
# Reachability lint: every src/ file must be part of a program. Starting
# from each source file under bench/, tools/, examples/ and mirobench/, the
# script follows quoted #include "..." lines (resolved next to the including
# file, then under src/) and, for every src/ header it reaches, the
# same-stem .cpp next to it. Any src/ .hpp or .cpp left unreached is code
# that only tests exercise: give it a program that uses it or delete it.
#
# Run from anywhere; prints the unreached files and exits 1 if there are any.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export LC_ALL=C

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

find bench tools examples mirobench -type f \( -name '*.cpp' -o -name '*.hpp' \) |
    sort > "$work/reached"
cp "$work/reached" "$work/frontier"

while [ -s "$work/frontier" ]; do
    while read -r file; do
        dir=$(dirname "$file")
        sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$file" |
        while read -r include; do
            for candidate in "$dir/$include" "src/$include"; do
                [ -f "$candidate" ] || continue
                echo "$candidate"
                case $candidate in
                    src/*.hpp)
                        stem=${candidate%.hpp}
                        if [ -f "$stem.cpp" ]; then echo "$stem.cpp"; fi ;;
                esac
                break
            done
        done
    done < "$work/frontier" | sort -u | comm -23 - "$work/reached" > "$work/next"
    mv "$work/next" "$work/frontier"
    sort -u "$work/reached" "$work/frontier" -o "$work/reached"
done

find src -type f \( -name '*.cpp' -o -name '*.hpp' \) | sort |
    comm -23 - "$work/reached" > "$work/unreached"
if [ -s "$work/unreached" ]; then
    sed 's/^/reachability: unreached by any bench, tool or example: /' \
        "$work/unreached" >&2
    echo "reachability: $(wc -l < "$work/unreached" | tr -d ' ') src/ file(s)" \
         "reached only by tests, if at all" >&2
    exit 1
fi
echo "reachability: clean ($(find src -type f \( -name '*.cpp' -o -name '*.hpp' \) | wc -l | tr -d ' ') src/ files reached)"

#!/usr/bin/env bash
# Non-test code lines of each workspace crate: the lines of src/**/*.rs
# that are neither blank nor `//` comments (doc comments included),
# counted up to each file's first `#[cfg(test)]`. Prints a Markdown table
# with a total row.
#
# Usage: ci/code_lines.sh [repo-root]   (defaults to this script's repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { lines++ }
        END { print lines + 0 }'
}

echo "| crate | code lines |"
echo "|---|---:|"
total=0
for src in src crates/*/src; do
    name=$(dirname "$src")
    [ "$name" = . ] && name=autognn
    n=$(count "$src")
    total=$((total + n))
    echo "| ${name#crates/} | $n |"
done
echo "| **total** | $total |"

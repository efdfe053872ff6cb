#!/usr/bin/env bash
# Non-test lines per crate: each `.rs` file under `crates/*/src` counts up
# to (not including) its first `#[cfg(test)]` line, or whole when it has
# none.  Prints one `crate lines` row per crate and an `all crates` total.
#
#   scripts/count-lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
    printf '%-14s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' "all crates" "$total"

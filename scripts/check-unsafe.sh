#!/usr/bin/env bash
# Assert the workspace's unsafe-code policy: no `unsafe` anywhere.  Every
# crate root carries `#![forbid(unsafe_code)]`, and no source file spells
# an `unsafe` token or an `allow(unsafe_code)`.  The compiler enforces the
# attribute; this script enforces that it is present, so a new crate (or
# a deleted line) cannot silently reopen the door.
#
# Run from the workspace root:  ./scripts/check-unsafe.sh
set -euo pipefail

status=0

check() {
    local file="$1" want="$2"
    if ! grep -qF "$want" "$file"; then
        echo "ERROR: $file is missing \`$want\`" >&2
        status=1
    fi
}

# The façade crate and every pf-* crate.
check src/lib.rs '#![forbid(unsafe_code)]'
for lib in crates/*/src/lib.rs; do
    check "$lib" '#![forbid(unsafe_code)]'
done

# No source file may contain an unsafe token or allow unsafe code (forbid
# makes these compile errors inside the crates; this also covers tests/,
# benches/ and bins, which have their own crate roots).  A leading `-` is
# allowed so comments may name this script.
stray=$(grep -rln --include='*.rs' -E '(^|[^a-z_-])unsafe([^_a-z]|$)|allow\(unsafe_code\)' \
    src tests crates 2>/dev/null || true)
if [ -n "$stray" ]; then
    echo "ERROR: unsafe token or allow(unsafe_code) found:" >&2
    echo "$stray" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo >&2
    echo "The workspace allows no unsafe code: every crate root carries" >&2
    echo "#![forbid(unsafe_code)]." >&2
    exit 1
fi

echo "unsafe-code check OK: forbid(unsafe_code) in every crate root, no unsafe token anywhere"

#!/usr/bin/env bash
# Assert the workspace's unsafe-code policy: every crate root carries
# `#![forbid(unsafe_code)]`, except pf-engine, which carries the one
# documented exemption — `#![deny(unsafe_code)]` with a per-function
# `#[allow(unsafe_code)]` at the lifetime-erasure site of its persistent
# worker pool.  Inside pf-engine only `src/pool.rs` may spell `unsafe` or
# `allow(unsafe_code)`.  The compiler enforces the attributes; this script
# enforces that the attributes are present and the exemption stays in one
# file, so a new crate, a new engine module (or a deleted line) cannot
# silently reopen the door.
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

# The façade crate and every pf-* crate except the exempted engine.
check src/lib.rs '#![forbid(unsafe_code)]'
for lib in crates/*/src/lib.rs; do
    crate=$(basename "$(dirname "$(dirname "$lib")")")
    if [ "$crate" = "pf-engine" ]; then
        check "$lib" '#![deny(unsafe_code)]'
        if grep -qF '#![forbid(unsafe_code)]' "$lib"; then
            echo "ERROR: $lib must use deny (documented exemption), not forbid" >&2
            status=1
        fi
    else
        check "$lib" '#![forbid(unsafe_code)]'
    fi
done

# Outside pf-engine, no source file may even spell `unsafe_code` allows or
# contain an unsafe token (forbid makes these compile errors inside the
# crates; this also covers tests/, benches/ and bins which have their own
# crate roots).
stray=$(grep -rln --include='*.rs' -E '(^|[^a-z_])unsafe([^_a-z]|$)' \
    src tests crates --exclude-dir=pf-engine 2>/dev/null || true)
if [ -n "$stray" ]; then
    echo "ERROR: unsafe token found outside pf-engine:" >&2
    echo "$stray" >&2
    status=1
fi

# Inside pf-engine, the exemption covers the worker pool only (a leading
# `-` is allowed so comments may name this script).
engine_stray=$(grep -rln --include='*.rs' -E '(^|[^a-z_-])unsafe([^_a-z]|$)|allow\(unsafe_code\)' \
    crates/pf-engine/src 2>/dev/null | grep -vx 'crates/pf-engine/src/pool.rs' || true)
if [ -n "$engine_stray" ]; then
    echo "ERROR: unsafe token or allow(unsafe_code) in pf-engine outside pool.rs:" >&2
    echo "$engine_stray" >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo >&2
    echo "The unsafe policy allows unsafe code only in pf-engine's worker" >&2
    echo "pool (crates/pf-engine/src/pool.rs: lifetime erasure for scoped" >&2
    echo "morsel tasks), behind deny + a scoped allow. See" >&2
    echo "crates/pf-engine/src/lib.rs." >&2
    exit 1
fi

echo "unsafe-code check OK: forbid everywhere, deny + a scoped allow in pf-engine's pool.rs only"

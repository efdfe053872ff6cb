#!/usr/bin/env bash
# Assert that the workspace's dependency set stays minimal: every package in
# the resolved graph must be either a workspace crate (pathfinder / pf-*) or
# the one sanctioned external dependency (rand, satisfied by the vendored
# shim under vendor/).
#
# Run from the workspace root:  ./scripts/check-deps.sh
set -euo pipefail

allowed='^(pathfinder|pf-[a-z0-9-]+|rand)$'

packages=$(cargo tree --workspace --edges normal,dev,build --prefix none \
    | awk '{print $1}' | sort -u)

violations=$(echo "$packages" | grep -Ev "$allowed" || true)

if [ -n "$violations" ]; then
    echo "ERROR: unexpected dependencies in the workspace graph:" >&2
    echo "$violations" >&2
    echo >&2
    echo "The dependency policy allows only workspace crates plus rand." >&2
    echo "If a new dependency is genuinely needed, vendor a shim" >&2
    echo "under vendor/ (see vendor/README.md) and update this allowlist." >&2
    exit 1
fi

count=$(echo "$packages" | wc -l)
echo "dependency check OK: $count packages, all workspace crates or sanctioned (rand)"

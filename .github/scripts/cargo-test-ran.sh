#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless its
# `test result:` lines sum to at least one passed test. A name filter that
# matches nothing makes `cargo test` exit 0 having run nothing; a step that
# filters by name runs through this instead.
#
#   .github/scripts/cargo-test-ran.sh -q --test vacuum vacuum_preserves
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
passed=$(awk '/^test result:/ { for (i = 2; i <= NF; i++) if ($i ~ /^passed/) n += $(i - 1) }
              END { print n + 0 }' "$log")
if [ "$passed" -lt 1 ]; then
    echo "error: \`cargo test $*\` ran no test: check its name filter" >&2
    exit 1
fi
echo "ok: $passed test(s) passed"

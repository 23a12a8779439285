#!/usr/bin/env bash
# Print the number of non-test Rust source lines in the workspace.
#
# Counts every line of the .rs files under crates/*/src and src/, minus each
# `#[cfg(test)]`-gated `mod ... { ... }` block (the attribute line through the
# closing brace). tests/, benches/, examples/ and ladderbench/ are not counted.
#
# Usage: ci/sloc.sh [REPO_ROOT]        (default: the repository this script is in)
#        ci/sloc.sh --per-file [REPO_ROOT]
set -euo pipefail

per_file=0
if [ "${1:-}" = "--per-file" ]; then
    per_file=1
    shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk -v per_file="$per_file" '
    FNR == 1 { if (file != "" && per_file) printf "%7d %s\n", lines, file; file = FILENAME; lines = 0; pending = 0; depth = -1 }
    depth >= 0 {
        # Inside a test module: track brace depth until it closes.
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0) depth = -1
        next
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
    pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+[[:space:]]*\{/ {
        pending = 0
        depth = gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0) depth = -1
        next
    }
    {
        # A #[cfg(test)] that gates something other than a module counts.
        if (pending) { lines++; total++; pending = 0 }
        lines++; total++
    }
    END {
        if (per_file && file != "") printf "%7d %s\n", lines, file
        print total
    }
'

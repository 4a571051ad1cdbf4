#!/usr/bin/env bash
# Counts the library's non-test code lines, crate by crate and in total.
#
# A line counts if it is not blank and does not start with `//` (so doc
# comments are left out too), in crates/*/src/**/*.rs. A file's count stops
# at the first `#[cfg(test)]` line whose next line opens a `mod`; a
# `#[cfg(test)]` on anything else (an `impl`, a `use`) is counted as code.
# The test-only files bitstream/src/applier_fuzz.rs and
# ppc/src/cpu/reference.rs are left out.
#
# Usage: scripts/count_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -name applier_fuzz.rs ! -path '*/cpu/reference.rs' -print0 |
        sort -z |
        xargs -0 awk '
            FNR == 1 { n += held; held = 0; stop = 0 }
            stop { next }
            { line = $0; gsub(/^[ \t]+|[ \t]+$/, "", line) }
            held {
                held = 0
                if (line ~ /^(pub(\([a-z]+\))? )?mod /) { stop = 1; next }
                n++
            }
            line == "" || line ~ /^\/\// { next }
            line == "#[cfg(test)]" { held = 1; next }
            { n++ }
            END { print n + held }'
}

total=0
for dir in crates/*/src; do
    crate="${dir#crates/}"
    crate="${crate%/src}"
    n=$(count "$dir")
    printf '%-14s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"

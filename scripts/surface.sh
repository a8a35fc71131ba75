#!/bin/sh
# Code-surface table: per crate and in total, the non-test Rust lines
# (everything above the first column-0 `#[cfg(test)]` of each
# `src/**/*.rs`; an indented one gates a single item, not the rest of the
# file) and the `pub` items declared in those lines.
#
#   scripts/surface.sh            the working tree
#   scripts/surface.sh <git-rev>  another revision, read via `git show`
#
# Printed so a PR can quote its own before/after; nothing is gated.
set -eu

rev=${1:-}
cd "$(git rev-parse --show-toplevel)"

list() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- crates src
    else
        find crates src -type f -name '*.rs'
    fi | grep -E '^(crates/[^/]+/)?src/.*\.rs$'
}

show() {
    if [ -n "$rev" ]; then git show "$rev:$1"; else cat "$1"; fi
}

list | while read -r file; do
    case $file in
        crates/*) crate=${file#crates/} crate=${crate%%/*} ;;
        *) crate=multiobj ;;
    esac
    show "$file" | awk -v crate="$crate" '
        /^#\[cfg\(test\)\]/ { exit }
        { lines++ }
        /^[ \t]*pub[ \t]+(fn|struct|enum|trait|type|const|mod|use)[ \t]/ { pubs++ }
        END { print crate, lines + 0, pubs + 0 }'
done | sort | awk -v what="${rev:-working tree}" '
    function row(name, lines, pubs) { printf "%-10s %15s %10s\n", name, lines, pubs }
    BEGIN { print "surface of " what; row("crate", "non-test lines", "pub items") }
    $1 != crate { if (crate != "") row(crate, l, p); crate = $1; l = 0; p = 0 }
    { l += $2; p += $3; L += $2; P += $3 }
    END { row(crate, l, p); row("total", L, P) }'

#!/usr/bin/env bash
# The uncalled public surface: every `pub fn` or `pub const fn` in the
# non-test code of crates/*/src and src (the lines before a file's first
# top-level `#[cfg(test)]`, as scripts/loc.sh counts them) whose name, as
# a word, appears in no other `.rs` file under crates/*/src,
# crates/*/benches, src, examples or benchmark/src. Integration tests do
# not count as callers: an item only they call is surface kept for them.
#
# Usage: scripts/surface.sh [-q]
#
# Prints `<file>:<line> <name>` per item (a name defined twice in one
# file, as on two types, is one item), then the count; with -q, only the
# count.
set -euo pipefail
cd "$(dirname "$0")/.."

quiet="${1:-}"
users=$(find crates/*/src crates/*/benches src examples benchmark/src -name '*.rs' 2> /dev/null | sort)

items=$(
  find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk '
      /^#\[cfg\(test\)\]/ { exit }
      match($0, /^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", name)
        print FILENAME ":" FNR, name
      }' "$f"
  done | while read -r site name; do
    # shellcheck disable=SC2046 # the paths hold no spaces
    if ! grep -qw -- "$name" $(echo "$users" | grep -vx -- "${site%%:*}"); then
      echo "$site $name"
    fi
  done | awk '{ split($1, at, ":") } !seen[at[1] " " $2]++'
)

if [ "$quiet" != "-q" ] && [ -n "$items" ]; then echo "$items"; fi
if [ -n "$items" ]; then echo "$items" | wc -l | tr -d ' '; else echo 0; fi

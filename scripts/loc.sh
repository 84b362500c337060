#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs and
# src/**/*.rs before the file's first top-level `#[cfg(test)]` (one that
# starts its line: the test module, not a test-only match arm), not
# counting blank lines and lines that are only a `//` comment (doc
# comments included).
#
# Usage: scripts/loc.sh [rev [dir]]
#
# Without an argument, counts the working tree. With a git revision, counts
# that revision too and prints the difference (tree - rev), so the "net
# non-test lines" of a change is this command's output. With a directory
# as well, lists the files under it instead of the crates.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
dir="${2:-}"
if [ -n "$rev" ]; then
  git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "loc: not a revision: $rev" >&2; exit 2; }
fi

# Prints `<crate> <lines>` for one file's text on stdin (read to the end,
# so a `git show` feeding it never sees a closed pipe).
count_file() {
  awk -v crate="$1" '
    /^#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print crate, n + 0 }'
}

# The row a file is counted under: itself when listing a directory,
# otherwise its crate.
crate_of() {
  case "$dir:$1" in
    :crates/*) echo "$1" | cut -d/ -f1-2 ;;
    :*) echo "(root)" ;;
    *) echo "$1" ;;
  esac
}

tree_counts() {
  find ${dir:-crates/*/src src} -name '*.rs' | while read -r f; do
    count_file "$(crate_of "$f")" < "$f"
  done
}

rev_counts() {
  git ls-tree -r --name-only "$rev" -- ${dir:-crates src} \
    | grep -E '^(crates/[^/]+/)?src/.*\.rs$' | while read -r f; do
    git show "$rev:$f" | count_file "$(crate_of "$f")"
  done
}

{
  tree_counts | sed 's/^/tree /'
  if [ -n "$rev" ]; then rev_counts | sed 's/^/rev /'; fi
} | awk '
  { sum[$1, $2] += $3; crates[$2] = 1 }
  END { for (c in crates) print c, sum["rev", c] + 0, sum["tree", c] + 0 }' \
  | sort | awk -v rev="$rev" '
  BEGIN {
    if (rev == "") printf "%-38s %8s\n", "crate", "lines"
    else printf "%-38s %8s %8s %8s\n", "crate", substr(rev, 1, 8), "tree", "diff"
  }
  function row(name, a, b) {
    if (rev == "") printf "%-38s %8d\n", name, b
    else printf "%-38s %8d %8d %+8d\n", name, a, b, b - a
  }
  { row($1, $2, $3); ta += $2; tb += $3 }
  END { row("total", ta, tb) }'

#!/usr/bin/env bash
# Non-test Rust lines per crate and in total: for every .rs file under the
# root package's src/ and each crates/*/src/, the lines above its first
# `#[cfg(test)]`. A file without one counts whole, a test-only module file
# such as crates/wse-lint/src/tests.rs included; that is the figure
# ROADMAP.md and CHANGES.md quote. Informational: no gate.
#
#   scripts/loc.sh        # prints "<lines> <crate>" rows, then the
#                         # core + wse-dsl subtotal and the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  local n=0 f
  while IFS= read -r f; do
    n=$((n + $(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")))
  done < <(find "$1" -name '*.rs' | sort)
  echo "$n"
}

total=0
core_dsl=0
for dir in src crates/*/src; do
  crate="${dir%/src}"
  [ "$dir" = src ] && crate="(root)"
  n="$(count "$dir")"
  printf '%7d %s\n' "$n" "${crate#crates/}"
  total=$((total + n))
  case "$dir" in crates/core/src | crates/wse-dsl/src) core_dsl=$((core_dsl + n)) ;; esac
done
printf '%7d %s\n' "$core_dsl" "core + wse-dsl"
printf '%7d %s\n' "$total" "total"

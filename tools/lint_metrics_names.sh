#!/usr/bin/env bash
# Lints the observability docs against the code, both ways, so the
# docs/OBSERVABILITY.md inventory cannot silently rot:
#   - every `errorflow.*` metric name registered anywhere in src/ must
#     appear in the inventory;
#   - every inventory row (a table row whose first cell is a backticked
#     `errorflow.*` name) must be registered by a src/ literal.
# Dynamic name families built with a trailing prefix (e.g.
# "errorflow.bound.tightness." + model + "." + format) are checked by that
# prefix: the inventory documents them with a `<model>.<format>`-style
# placeholder row, and a row matches when it starts with the prefix.
#
# Usage: lint_metrics_names.sh [src-dir] [docs-file]
# Registered as the `metrics_names_lint` ctest.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
src_dir="${1:-$root/src}"
doc_file="${2:-$root/docs/OBSERVABILITY.md}"

if [ ! -d "$src_dir" ]; then
  echo "lint_metrics_names: no such source dir: $src_dir" >&2
  exit 2
fi
if [ ! -f "$doc_file" ]; then
  echo "lint_metrics_names: no such docs file: $doc_file" >&2
  exit 2
fi

# String literals that look like metric names; trailing dots mark dynamic
# prefixes and are stripped before the docs lookup.
literals="$(grep -rhoE '"errorflow(\.[a-z0-9_]+)+\.?"' "$src_dir" \
  --include='*.cc' --include='*.h' | tr -d '"' | sort -u)"
names="$(printf '%s\n' "$literals" | sed 's/\.$//' | sort -u)"

if [ -z "$names" ]; then
  echo "lint_metrics_names: found no errorflow.* literals under $src_dir" >&2
  exit 2
fi

missing=0
total=0
while IFS= read -r name; do
  total=$((total + 1))
  if ! grep -qF "$name" "$doc_file"; then
    echo "UNDOCUMENTED metric: $name (add it to $doc_file)" >&2
    missing=$((missing + 1))
  fi
done <<EOF
$names
EOF

# The other way: inventory rows that no literal registers, either exactly
# or as a dynamic prefix.
rows="$(grep -oE '^\|[[:space:]]*`errorflow\.[^`]+`' "$doc_file" |
  sed -E 's/^\|[[:space:]]*`//; s/`$//' | sort -u)"
stale=0
documented=0
while IFS= read -r row; do
  [ -z "$row" ] && continue
  documented=$((documented + 1))
  if ! printf '%s\n' "$literals" | awk -v row="$row" '
      /\.$/ { if (index(row, $0) == 1) found = 1; next }
      $0 == row { found = 1 }
      END { exit !found }'; then
    echo "STALE inventory row: $row (no literal under $src_dir registers it)" >&2
    stale=$((stale + 1))
  fi
done <<EOF
$rows
EOF

if [ "$missing" -ne 0 ] || [ "$stale" -ne 0 ]; then
  echo "lint_metrics_names: $missing of $total registered names missing" \
    "from $doc_file; $stale of $documented inventory rows registered" \
    "nowhere" >&2
  exit 1
fi
echo "lint_metrics_names: all $total registered metric names documented," \
  "all $documented inventory rows registered"

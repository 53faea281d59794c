#!/usr/bin/env bash
# Lints src/ for code that only tests reach: every src/**/*.h must be
# included by at least one production file -- under src/, tools/, bench/,
# examples/ or perfbench/ -- other than the header's own .cc. Includers
# under tests/ do not count. A module exempt from the rule is listed in the
# allow-list, one `<header> <reason>` line each (paths relative to src/,
# `#` starts a comment; entries with `::` are function entries, read by
# tools/lint_dead_functions.sh). An allow-list entry is itself an error
# once it is stale: the header is gone, or it has gained a production
# caller.
#
# Usage: lint_production_callers.sh [repo-root] [allow-list]
# Registered as the `production_callers_lint` ctest.
set -euo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
allow_file="${2:-$root/tools/production_callers_allowlist.txt}"

if [ ! -d "$root/src" ]; then
  echo "lint_production_callers: no src/ under $root" >&2
  exit 2
fi
if [ ! -f "$allow_file" ]; then
  echo "lint_production_callers: no such allow-list: $allow_file" >&2
  exit 2
fi
allow_file="$(cd "$(dirname "$allow_file")" && pwd)/$(basename "$allow_file")"
cd "$root"

caller_dirs=()
for d in src tools bench examples perfbench; do
  [ -d "$d" ] && caller_dirs+=("$d")
done

# "<file>\t<included path>" for every quoted include in a production file.
includes="$(grep -rHoE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"[^"]+"' \
  "${caller_dirs[@]}" --include='*.h' --include='*.cc' --include='*.cpp' |
  sed -E 's/:[[:space:]]*#[[:space:]]*include[[:space:]]*"/\t/; s/"$//')"

# Prints the production includers of header $1 (relative to src/).
callers_of() {
  printf '%s\n' "$includes" |
    awk -F'\t' -v h="$1" -v own="src/${1%.h}.cc" '$2 == h && $1 != own {print $1}'
}

# Allow-listed headers, validated as the file is read.
declare -A allowed=()
errors=0
while IFS= read -r line || [ -n "$line" ]; do
  line="${line%%#*}"
  read -r header reason <<<"$line" || true
  [ -z "${header:-}" ] && continue
  [[ "$header" == *::* ]] && continue
  if [ -z "${reason:-}" ]; then
    echo "ALLOW-LIST entry without a reason: $header" >&2
    errors=$((errors + 1))
  elif [ ! -f "src/$header" ]; then
    echo "STALE allow-list entry: src/$header no longer exists" >&2
    errors=$((errors + 1))
  else
    caller="$(callers_of "$header" | head -1)"
    if [ -n "$caller" ]; then
      echo "STALE allow-list entry: $header now has a production caller" \
        "($caller); remove it from $allow_file" >&2
      errors=$((errors + 1))
    fi
  fi
  allowed["$header"]=1
done <"$allow_file"

total=0
while IFS= read -r header; do
  total=$((total + 1))
  [ -n "${allowed[$header]:-}" ] && continue
  if [ -z "$(callers_of "$header")" ]; then
    echo "NO PRODUCTION CALLER: src/$header is included only by tests" \
      "or its own .cc (wire it in, delete it, or allow-list it)" >&2
    errors=$((errors + 1))
  fi
done < <(cd src && find . -name '*.h' | sed 's|^\./||' | sort)

if [ "$errors" -ne 0 ]; then
  echo "lint_production_callers: $errors problem(s) across $total headers" >&2
  exit 1
fi
echo "lint_production_callers: all $total headers under src/ have a" \
  "production caller or an allow-list entry"

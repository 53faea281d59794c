#!/usr/bin/env bash
# Lints tests/ for orphan test sources: every git-tracked tests/**/*.cc
# must belong to a test target, i.e. be named in tests/CMakeLists.txt
# outside a comment. A test file that no target compiles never runs, so
# its assertions rot unseen. Outside a git checkout every tests/**/*.cc
# is checked.
#
# Usage: lint_test_sources.sh [repo-root]
# Registered as the `test_sources_lint` ctest.
set -euo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
cmake_file="$root/tests/CMakeLists.txt"
if [ ! -f "$cmake_file" ]; then
  echo "lint_test_sources: no tests/CMakeLists.txt under $root" >&2
  exit 2
fi
cd "$root"

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  sources="$(git ls-files -- 'tests/*.cc')"
else
  sources="$(find tests -name '*.cc' | sort)"
fi

# Every .cc token of tests/CMakeLists.txt, comments stripped, as a path
# relative to the repo root.
declare -A listed=()
while IFS= read -r source; do
  listed["tests/$source"]=1
done < <(sed 's/#.*//' "$cmake_file" |
  grep -oE '[^[:space:]()"]+\.cc\b' || true)

errors=0
total=0
while IFS= read -r source; do
  [ -z "$source" ] && continue
  total=$((total + 1))
  if [ -z "${listed[$source]:-}" ]; then
    echo "ORPHAN TEST SOURCE: $source belongs to no test target" \
      "(add it to tests/CMakeLists.txt or delete it)" >&2
    errors=$((errors + 1))
  fi
done <<<"$sources"

if [ "$errors" -ne 0 ]; then
  echo "lint_test_sources: $errors of $total test sources in no target" >&2
  exit 1
fi
echo "lint_test_sources: all $total test sources belong to a test target"

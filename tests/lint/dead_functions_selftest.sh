#!/usr/bin/env bash
# Self-test of tools/lint_dead_functions.sh: builds a fixture archive
# (libef_fixture.a) and one binary that calls a single function of it, the
# way the lint expects (-O0, function and data sections, --gc-sections),
# then checks the lint's verdict under several allow-lists.
#
# Usage: dead_functions_selftest.sh <c++ compiler> <ar> <lint script> <work dir>
set -euo pipefail

cxx="$1"
ar="$2"
lint="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
work="$4"
rm -rf "$work"
mkdir -p "$work/build"
cd "$work"

# Unused returns std::string, so its symbol carries an ABI tag that
# allow-list entries leave out.
cat >fixture.cc <<'CC'
#include <string>
namespace errorflow::fixture {
int Used(int x) { return x + 1; }
int ReachedOnlyFromUnused(int x) { return 3 * x; }
std::string Unused(int x) { return std::string(ReachedOnlyFromUnused(x), 'u'); }
}  // namespace errorflow::fixture
CC
cat >main.cc <<'CC'
namespace errorflow::fixture {
int Used(int x);
}
int main(int argc, char**) { return errorflow::fixture::Used(argc) == 0; }
CC
flags=(-O0 -ffunction-sections -fdata-sections)
"$cxx" "${flags[@]}" -c fixture.cc -o fixture.cc.o
"$ar" rcs build/libef_fixture.a fixture.cc.o
"$cxx" "${flags[@]}" main.cc -o build/main -Wl,--gc-sections \
  -Lbuild -lef_fixture

failures=0
# expect <name> <exit status> <allow-list text> [<pattern that must appear>]
# [!<pattern that must not appear>]...
expect() {
  local name="$1" want="$2" allow="$3"
  shift 3
  printf '%s' "$allow" >"allow-$name.txt"
  local got=0
  bash "$lint" build "allow-$name.txt" >"out-$name.txt" 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, want $want" >&2
    cat "out-$name.txt" >&2
    failures=$((failures + 1))
    return
  fi
  local pattern
  for pattern in "$@"; do
    if [ "${pattern:0:1}" = '!' ]; then
      if grep -qF -- "${pattern:1}" "out-$name.txt"; then
        echo "FAIL $name: output has '${pattern:1}'" >&2
        cat "out-$name.txt" >&2
        failures=$((failures + 1))
      fi
    elif ! grep -qF -- "$pattern" "out-$name.txt"; then
      echo "FAIL $name: output lacks '$pattern'" >&2
      cat "out-$name.txt" >&2
      failures=$((failures + 1))
    fi
  done
}

expect unreached 1 '' \
  'NO PRODUCTION CALLER: errorflow::fixture::Unused[abi:cxx11](int)' \
  'NO PRODUCTION CALLER: errorflow::fixture::ReachedOnlyFromUnused(int)' \
  '!errorflow::fixture::Used('
# The allow-listed function and what it calls count as reached; header
# entries belong to lint_production_callers.sh and are skipped here.
expect allowed 0 'errorflow::fixture::Unused Public entry point kept for clients
net/client.h A header entry
' 'all 3 functions'
expect no_reason 1 'errorflow::fixture::Unused
' 'ALLOW-LIST entry without a reason: errorflow::fixture::Unused'
expect stale_gone 1 'errorflow::fixture::Unused Public entry point
errorflow::fixture::Removed Was deleted since
' 'STALE allow-list entry: errorflow::fixture::Removed matches no function'
expect stale_reached 1 'errorflow::fixture::Unused Public entry point
errorflow::fixture::Used Has a caller now
' 'STALE allow-list entry: errorflow::fixture::Used is kept by production binary main'

if [ "$failures" -ne 0 ]; then
  echo "dead_functions_selftest: $failures failure(s)" >&2
  exit 1
fi
echo "dead_functions_selftest: all cases passed"

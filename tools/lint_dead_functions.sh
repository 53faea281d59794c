#!/usr/bin/env bash
# Lints a build for functions that no production binary reaches. Each
# out-of-line `errorflow::` function defined in the `libef_*.a` archives
# (a global `T` symbol) must be kept by at least one production binary of
# the build when it is linked with `-Wl,--gc-sections`. The production
# binaries are every ELF executable in the build tree outside `tests/`
# directories, except `*_test` and `*_tests`.
#
# The build must be compiled at -O0 (no caller hidden by inlining) with
# -ffunction-sections -fdata-sections, so that the linker drops each
# unreached function by itself:
#
#   cmake -B build-o0 -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
#     -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
#     -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#
# Templates and functions defined inline in headers are weak symbols and
# are not covered.
#
# Exemptions come from the allow-list of tools/lint_production_callers.sh:
# the same `<entry> <reason>` lines, of which this lint reads the ones
# whose entry is a qualified name (contains `::`). An entry names a
# function (every overload) or a class (every member). A function called,
# directly or through other functions, by an allow-listed one counts as
# reached; the calls are read from the archives' relocations. An entry is
# an error when it has no reason or is stale: it matches no function, or
# a production binary keeps one it matches.
#
# Usage: lint_dead_functions.sh <build-dir> [allow-list]
# Exit status: 0 clean, 1 problems found, 2 bad usage.
set -euo pipefail

if [ $# -lt 1 ] || [ ! -d "$1" ]; then
  echo "usage: lint_dead_functions.sh <build-dir> [allow-list]" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
allow_file="${2:-$(dirname "$0")/production_callers_allowlist.txt}"
if [ ! -f "$allow_file" ]; then
  echo "lint_dead_functions: no such allow-list: $allow_file" >&2
  exit 2
fi
allow_file="$(cd "$(dirname "$allow_file")" && pwd)/$(basename "$allow_file")"

cd "$build"
mapfile -t libs < <(find . -name 'libef_*.a' -not -path '*/CMakeFiles/*' | sort)
bins=()
while IFS= read -r f; do
  [ "$(head -c 4 "$f" | od -An -c | tr -d ' ')" = '177ELF' ] && bins+=("$f")
done < <(find . -type f -perm -u+x -not -name '*.a' -not -name '*.so*' \
  -not -name '*_test' -not -name '*_tests' \
  -not -path '*/CMakeFiles/*' -not -path '*/tests/*' | sort)
if [ "${#libs[@]}" -eq 0 ] || [ "${#bins[@]}" -eq 0 ]; then
  echo "lint_dead_functions: $build has ${#libs[@]} libef_*.a archive(s) and" \
    "${#bins[@]} production binary(ies); build it first" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Symbol tables and relocations of every archive member, then the demangled
# name of every function symbol.
objdump -t "${libs[@]}" >"$tmp/syms"
objdump -r "${libs[@]}" >"$tmp/relocs"
awk -F'\t' 'NF == 2 && $1 ~ / F / {split($2, r, " "); print r[2]}' "$tmp/syms" |
  sort -u >"$tmp/mangled"
c++filt <"$tmp/mangled" | paste "$tmp/mangled" - >"$tmp/demangled"
# Every symbol a production binary keeps, with the first binary keeping it.
for b in "${bins[@]}"; do
  nm --defined-only "$b" | awk -v b="${b#./}" 'NF == 3 {print $3 "\t" b}'
done >"$tmp/kept"

# Function entries of the allow-list, validated as the file is read.
errors=0
: >"$tmp/entries"
while IFS= read -r line || [ -n "$line" ]; do
  line="${line%%#*}"
  read -r entry reason <<<"$line" || true
  [[ "${entry:-}" == *::* ]] || continue
  if [ -z "${reason:-}" ]; then
    echo "ALLOW-LIST entry without a reason: $entry" >&2
    errors=$((errors + 1))
  fi
  printf '%s\n' "$entry" >>"$tmp/entries"
done <"$allow_file"

set +e
awk -F'\t' -v allow_file="$allow_file" -v result="$tmp/result" '
  # Drops the parameter list, cv/ref qualifiers and ABI tags of a
  # demangled name.
  function qualified(d,    i, depth, c) {
    gsub(/\[abi:[A-Za-z0-9_]*\]/, "", d)
    sub(/( const| volatile| &&| &)+$/, "", d)
    if (substr(d, length(d)) != ")") return d
    depth = 0
    for (i = length(d); i > 0; i--) {
      c = substr(d, i, 1)
      if (c == ")") depth++
      else if (c == "(" && --depth == 0) return substr(d, 1, i - 1)
    }
    return d
  }
  # An entry names a function (all overloads) or a class (all members).
  function matches(q, e) {
    return q == e || index(q, e "::") == 1
  }
  # Follows the "In archive <lib>:" and "<member>: file format" headers
  # of objdump; true when the line was one of them.
  function track_member() {
    if ($0 ~ /^In archive /) {
      archive = substr($0, 12)
      sub(/:$/, "", archive)
      sub(/.*\//, "", archive)
      return 1
    }
    if ($0 ~ /:[ ]+file format /) {
      sub(/:[ ]+file format.*/, "")
      member = archive "(" $0 ")"
      return 1
    }
    return 0
  }
  # A graph node is one section of one archive member.
  function add_edge(from, to) { edges[from] = edges[from] SUBSEP to }

  FILENAME == ARGV[1] { demangled[$1] = $2; next }
  FILENAME == ARGV[2] { if (!($1 in kept)) kept[$1] = $2; next }
  FILENAME == ARGV[3] { entries[++n_entries] = $1; next }
  FILENAME == ARGV[4] {
    # objdump -t: one line per symbol,
    # "<value> <flags> <section>\t<size> <name>".
    if (track_member() || NF != 2) next
    split($2, r, " ")
    name = r[2]
    nf = split($1, l, " ")
    section = l[nf]
    node = member "|" section
    bind = substr($1, 18, 1)
    if (bind == "l") local_def[member "|" name] = node
    else global_def[name] = global_def[name] SUBSEP node
    if (l[nf - 1] != "F" || !(name in demangled)) next
    q = qualified(demangled[name])
    for (i = 1; i <= n_entries; i++) {
      if (matches(q, entries[i])) { root[node] = 1; break }
    }
    if (bind != "g" || section !~ /^\.text/) next
    if (index(q, "errorflow::") != 1) next
    defined[name] = node
    cand_q[name] = q
    where[name] = member
    next
  }
  {
    # objdump -r: "RELOCATION RECORDS FOR [<section>]:", then one line per
    # relocation, "<offset> <type> <symbol or section>[+-addend]".
    if (track_member()) next
    if ($0 ~ /^RELOCATION RECORDS FOR \[/) {
      from = $0
      sub(/^RELOCATION RECORDS FOR \[/, "", from)
      sub(/\]:$/, "", from)
      from = member "|" from
      next
    }
    split($0, f, " ")
    if (f[3] == "" || f[1] == "OFFSET") next
    to = f[3]
    sub(/[+-]0x[0-9a-f]+$/, "", to)
    if (substr(to, 1, 1) == ".") add_edge(from, member "|" to)
    else if ((member "|" to) in local_def) add_edge(from, local_def[member "|" to])
    else if (to in global_def) edges[from] = edges[from] global_def[to]
  }
  END {
    # Everything an allow-listed function reaches through its relocations.
    top = 0
    for (node in root) {
      reached[node] = 1
      stack[++top] = node
    }
    while (top > 0) {
      k = split(edges[stack[top--]], next_nodes, SUBSEP)
      for (i = 2; i <= k; i++) {
        if (next_nodes[i] in reached) continue
        reached[next_nodes[i]] = 1
        stack[++top] = next_nodes[i]
      }
    }
    problems = 0
    total = 0
    for (name in defined) {
      total++
      for (i = 1; i <= n_entries; i++) {
        if (!matches(cand_q[name], entries[i])) continue
        entry_hits[i]++
        if ((name in kept) && !(i in entry_kept)) entry_kept[i] = kept[name]
      }
      if ((name in kept) || (defined[name] in reached)) continue
      if (demangled[name] in reported) continue
      reported[demangled[name]] = 1
      printf "NO PRODUCTION CALLER: %s in %s (wire it in, delete it, " \
             "or allow-list it)\n", demangled[name], where[name]
      problems++
    }
    for (i = 1; i <= n_entries; i++) {
      if (!entry_hits[i]) {
        printf "STALE allow-list entry: %s matches no function in the " \
               "libef_*.a archives\n", entries[i]
        problems++
      } else if (i in entry_kept) {
        printf "STALE allow-list entry: %s is kept by production binary " \
               "%s; remove it from %s\n", entries[i], entry_kept[i], allow_file
        problems++
      }
    }
    printf "%d %d\n", problems, total > (result)
  }
' "$tmp/demangled" "$tmp/kept" "$tmp/entries" "$tmp/syms" "$tmp/relocs" \
  >"$tmp/problems"
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "lint_dead_functions: symbol scan failed" >&2
  exit 2
fi
sort "$tmp/problems" >&2
read -r problems total <"$tmp/result"
errors=$((errors + problems))
if [ "$errors" -ne 0 ]; then
  echo "lint_dead_functions: $errors problem(s) across $total functions" \
    "and ${#bins[@]} production binaries" >&2
  exit 1
fi
echo "lint_dead_functions: all $total functions are kept by one of" \
  "${#bins[@]} production binaries or allow-listed"

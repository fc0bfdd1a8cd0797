#!/usr/bin/env bash
# Print every function the src/ libraries define that no product binary
# contains: code that only a test reaches. One demangled name per line,
# sorted, so the list is a gate that may only shrink:
#
#   tools/test_only.sh | diff tools/test_only.txt -
#
# Method: build this tree and perfbench/ into a temporary directory at -O0
# with -ffunction-sections, and link every tool, bench, example and the
# perfbench program with --gc-sections, so a binary keeps only the
# functions something in it calls. Then list the strong (T) symbols of the
# src/ archives that no product binary defines. Inline functions are weak
# and never listed; a function inlined away at -O0 does not exist.
#
# Optional argument: the build directory to use (default: a fresh temporary
# directory, removed on exit). Build jobs: $JOBS (default: nproc, at most 4).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -ge 1 ]]; then
  work="$1"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
jobs="${JOBS:-$(n=$(nproc); echo $((n < 4 ? n : 4)))}"

flags=(-DCMAKE_BUILD_TYPE=Survey -DCMAKE_CXX_FLAGS_SURVEY=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

products=()
for f in "$root"/tools/rw*.cpp "$root"/bench/bench_*.cpp \
         "$root"/examples/*.cpp; do
  products+=("$(basename "$f" .cpp)")
done

{
  cmake -S "$root" -B "$work/tree" "${flags[@]}"
  cmake --build "$work/tree" -j "$jobs" --target "${products[@]}"
  cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}"
  cmake --build "$work/perfbench" -j "$jobs" --target perfbench
} > "$work/build.log" 2>&1 || { cat "$work/build.log" >&2; exit 1; }

# Names of the symbols of kind $1 (a grep -E class) in files $2...
defined() {
  local kinds="$1"
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    awk -v k="^($kinds)\$" '$2 ~ k { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    LC_ALL=C sort -u
}

bins=()
for p in "${products[@]}"; do
  bins+=("$(find "$work/tree" -type f -name "$p" -perm -u+x | head -n1)")
done
bins+=("$work/perfbench/perfbench")

LC_ALL=C comm -23 <(defined T "$work"/tree/src/*/*.a) \
                  <(defined 'T|W|t' "${bins[@]}")

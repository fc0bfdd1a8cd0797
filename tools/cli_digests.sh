#!/usr/bin/env bash
# Print the SHA-256 of each CLI's --json output and the tool's exit status,
# one "digest  exit  name" line per run, in a fixed order. The outputs are
# deterministic, so the list is a byte-identity check for every change that
# must not move a result:
#
#   tools/cli_digests.sh build | diff tools/cli_digests.txt -
#
# The argument is a CMake build tree that holds the built tools/ binaries
# (default: build). A nonzero exit status is recorded, not fatal: rwlint
# exits 1 when its corpus has findings, which it is meant to.
set -uo pipefail

bin="${1:-build}/tools"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

run() {
  local name="$1" tool="$2"
  shift 2
  "$bin/$tool" "$@" --json > "$out"
  local status=$?
  printf '%s  %d  %s\n' "$(sha256sum < "$out" | cut -d' ' -f1)" "$status" \
    "$name"
}

run rwprof_bus rwprof --no-files
run rwprof_mesh rwprof --no-files --mesh
run rwert rwert --no-files
run rwcritpath rwcritpath --no-files
run rwfault rwfault --no-files
run rwlint rwlint --no-files
run rwfuzz rwfuzz --seeds 200 --tiny --no-files

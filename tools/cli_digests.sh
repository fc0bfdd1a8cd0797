#!/usr/bin/env bash
# Print the SHA-256 of each CLI's --json output and the tool's exit status,
# one "digest  exit  name" line per run, in a fixed order. The outputs are
# deterministic, so the list is a byte-identity check for every change that
# must not move a result:
#
#   tools/cli_digests.sh build | diff tools/cli_digests.txt -
#
# After the --json runs, rwprof (bus, mesh and DVFS governor) and rwert run
# once more into an empty --out-dir, and every file they write gets its own
# line, named "<run>/<file>" in file-name order: the Chrome traces, VCD
# waveforms, folded stacks, CSV and report JSON that --no-files skips. The
# mesh files cover only the two workloads that use the interconnect
# (forkjoin and pipeline make no transfers, so their mesh files repeat the
# bus bytes); the governor's DVFS-shifted times give every file distinct
# bytes.
#
# Last, two usage errors: a number that does not fit its flag must exit 2
# with nothing on stdout (the digest of the empty string), not wrap.
#
# The argument is a CMake build tree that holds the built tools/ binaries
# (default: build). A nonzero exit status is recorded, not fatal: rwlint
# exits 1 when its corpus has findings, which it is meant to.
set -uo pipefail

bin="${1:-build}/tools"
out="$(mktemp)"
dir="$(mktemp -d)"
trap 'rm -rf "$out" "$dir"' EXIT

digest() { sha256sum < "$1" | cut -d' ' -f1; }

run() {
  local name="$1" tool="$2"
  shift 2
  "$bin/$tool" "$@" --json > "$out"
  local status=$?
  printf '%s  %d  %s\n' "$(digest "$out")" "$status" "$name"
}

# Run a tool with --out-dir and print one line per file it wrote.
files() {
  local name="$1" tool="$2"
  shift 2
  mkdir "$dir/$name"
  "$bin/$tool" "$@" --json --out-dir "$dir/$name" > /dev/null
  local status=$? f
  for f in $(cd "$dir/$name" && LC_ALL=C ls); do
    printf '%s  %d  %s\n' "$(digest "$dir/$name/$f")" "$status" "$name/$f"
  done
}

run rwprof_bus rwprof --no-files
run rwprof_mesh rwprof --no-files --mesh
run rwert rwert --no-files
run rwcritpath rwcritpath --no-files
run rwfault rwfault --no-files
run rwlint rwlint --no-files
run rwfuzz rwfuzz --seeds 200 --tiny --no-files
files rwprof_bus rwprof
files rwprof_mesh rwprof --mesh shared_hammer tiled_pipeline
files rwprof_gov rwprof --governor
files rwert rwert
run rwprof_cores_overflow rwprof --no-files --cores 18446744073709551617
run rwcritpath_blocks_overflow rwcritpath --no-files --blocks 4294967297

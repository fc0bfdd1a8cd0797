#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark's pins and exact counters.

    python3 perfbench/selftest.py               # check (exit 1 on failure)
    python3 perfbench/selftest.py --write-pins  # regenerate pins.json

For every workload and for the default seed (1) and the held-out seed (2)
it runs the tiny corpus twice, each in its own process, and checks that:
  * the run is pinned and every op matched its pin (correct, failed == 0);
  * both runs print byte-identical work counters.
--write-pins records the output digests of every corpus entry, full and
tiny size, for both seeds. Regenerate pins only for a change that is meant
to alter simulated outputs, and say so in its description.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (the sibling entry point)

PINNED_SEEDS = (1, 2)  # default seed, held-out seed


def write_pins():
    bench.build()
    pins = {}
    for workload in bench.WORKLOADS:
        for size in ("full", "tiny"):
            for seed in PINNED_SEEDS:
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0", "--emit-pins"]
                if size == "tiny":
                    args.append("--tiny")
                lines = bench.run_binary(args)
                pins["%s/%s/%d" % (workload, size, seed)] = \
                    json.loads(lines[-1])
    path = os.path.join(bench.HERE, "pins.json")
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path)


def run_tiny(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", "0", "--tiny"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        return None, None, None, out.stderr
    lines = out.stdout.splitlines()
    host = json.loads(next(l for l in lines if l.startswith('{"host"')))
    counts = next(l for l in lines if l.startswith('{"counts"'))
    return host["host"], counts, json.loads(lines[-1]), out.stderr


def check():
    failures = []
    for workload in bench.WORKLOADS:
        for seed in PINNED_SEEDS:
            first = run_tiny(workload, seed)
            second = run_tiny(workload, seed)
            tag = "%s seed %d" % (workload, seed)
            for host, counts, result, err in (first, second):
                if result is None:
                    failures.append("%s: run failed: %s" % (tag, err.strip()))
                elif not host["pinned"]:
                    failures.append("%s: no pins" % tag)
                elif not result["correct"] or result["failed"] != 0:
                    failures.append("%s: %d/%d ops failed: %s" % (
                        tag, result["failed"], result["attempted"],
                        err.strip()))
            if first[1] is not None and first[1] != second[1]:
                failures.append("%s: counters differ between runs:\n  %s\n  %s"
                                % (tag, first[1], second[1]))
            print("%-13s seed %d: %s" % (workload, seed,
                                         first[1] if first[1] else "FAILED"))
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-pins"]:
        write_pins()
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        sys.exit(check())

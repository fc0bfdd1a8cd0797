#!/usr/bin/env python3
"""Repository benchmark: host simulation speed of roadworks, end to end and
per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the roadworks libraries and the
perfbench program from source (Release) under .bench_build/, then runs one
workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
host fingerprint, op counts and the exact work counters.

The work counters of each (workload, size, seed, trace) are kept under
.bench_build/perfbench-counts/<source digest>/; a later run of the same
sources whose counters differ in any byte reports correct=false.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
COUNTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-counts")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("sim_untraced", "sim_observed", "tiled_4t", "fuzz_batch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over every file of src/ and perfbench/, path and content."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository at ROOT, or "none" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def build():
    """Configure once, then an incremental Release build; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no roadworks sources under src/ (run from the repo root)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run perfbench with `args`; returns its stdout lines."""
    try:
        out = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                             text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("perfbench did not finish: %s" % e)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail("perfbench exited with code %d" % out.returncode)
    return out.stdout.splitlines()


def check_counts(key, digest, counts_line):
    """Compare this run's counters with the stored ones of the same sources;
    returns False when they differ."""
    path = os.path.join(COUNTS_DIR, digest, key + ".json")
    if os.path.isfile(path):
        with open(path) as f:
            if f.read() != counts_line:
                print("perfbench: work counters differ from an earlier run "
                      "of the same sources (%s)" % path, file=sys.stderr)
                return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(counts_line)
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="shrunken corpus, for the self-check")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    digest = source_digest()
    size = "tiny" if a.tiny else "full"
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace,
            "--pins", os.path.join(HERE, "pins.json"),
            "--commit", git_commit(), "--source-digest", digest]
    if a.tiny:
        args.append("--tiny")
    if a.trace == "1":
        args += ["--spans-out", os.path.join(
            ROOT, ".bench_build", "spans-%s.csv" % a.workload)]
    lines = run_binary(args)
    if not lines:
        fail("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result object: " + lines[-1])

    counts = [l for l in lines if l.startswith('{"counts"')]
    if not counts:
        fail("perfbench printed no work counters")
    key = "%s-%s-%d-trace%s" % (a.workload, size, a.seed, a.trace)
    if not check_counts(key, digest, counts[0]):
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

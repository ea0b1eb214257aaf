#!/usr/bin/env python3
"""Repo benchmark: build the library and mprobe_perf, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (a standalone CMake project over ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. mprobe_perf's stdout is passed through: provenance and
check lines, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Any failure to build or run
exits non-zero without printing a result.

Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plain_cold", "plain_warm", "serve_sweep_cold",
             "model_pipeline")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configure once, then build incrementally; True on success."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        try:
            for cmd in steps:
                if subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT).returncode:
                    break
            else:
                return True
        except OSError as e:
            log.write(f"{e}\n")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    # A failed configure must not leave a cache that skips it later.
    cache = os.path.join(out, "CMakeCache.txt")
    if len(steps) == 2 and os.path.exists(cache):
        os.remove(cache)
    return False


def commit_id():
    """HEAD of the checkout's git metadata, if it has any."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none"


def source_digest():
    """Digest of the sources the benchmark builds, for provenance in
    checkouts without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    # Turn SIGTERM into an exception, so subprocess.run kills and
    # reaps the build or mprobe_perf before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))

    out = build_dir()
    if not build(out):
        fail("build failed")
    binary = os.path.join(out, "mprobe_perf")
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--out", os.path.join(ROOT, ".perfbench-out"),
           "--commit", f"{commit_id()}/src-{source_digest()}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"mprobe_perf exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

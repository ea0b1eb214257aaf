#!/bin/sh
# Regenerate BENCH_baseline.json exactly the way CI measures it
# (.github/workflows/ci.yml, "Campaign perf metrics"): the perf and
# DVFS-sweep specs, each run cache-cold and cache-warm
# single-threaded, assembled with jq into the four legs the
# ratcheting perf gate compares.
#
# Run it from the repository root on the machine class CI uses,
# with an up-to-date Release build in build/, then commit the
# refreshed file. The gate fails when measured throughput exceeds
# 2x the committed baseline, so every real speedup must land
# together with the output of this script.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
bin="$repo/build/mprobe_campaign"
out="$repo/BENCH_baseline.json"
[ -x "$bin" ] || {
    echo "error: $bin not built (cmake -B build -S . " \
         "-DCMAKE_BUILD_TYPE=Release && cmake --build build)" >&2
    exit 1
}
# A sanitized build must never become the baseline: its timings
# are 5-20x off, and a slow baseline blinds the ratchet (every
# later regression would still beat it).
grep -q 'MPROBE_SANITIZE:[^=]*=OFF' "$repo/build/CMakeCache.txt" || {
    echo "error: build/ is a sanitized configuration" \
         "(MPROBE_SANITIZE != OFF); rebuild plain Release before" \
         "refreshing the baseline" >&2
    exit 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Keep these spec bodies in lockstep with ci.yml: the baseline is
# only meaningful against the exact job mix CI measures.
printf '%s\n' 'categories = memory, random' \
    'configs = all' 'random_count = 8' \
    'per_memory_group = 1' 'memory_count = 2' \
    'body_size = 1024' 'bootstrap = 0' \
    'threads = 1' > perf.spec
printf '%s\n' 'categories = memory, random' \
    'configs = 1-1,2-2,4-2,8-4' \
    'freqs = 2.0,2.5,3.0,3.5' 'random_count = 8' \
    'per_memory_group = 1' 'memory_count = 2' \
    'body_size = 1024' 'bootstrap = 0' \
    'threads = 1' > sweep-perf.spec

"$bin" --spec perf.spec --cache-dir perf-cache --quiet \
    --metrics-json-stable cold.json
"$bin" --spec perf.spec --cache-dir perf-cache --quiet \
    --metrics-json-stable warm.json
"$bin" --spec sweep-perf.spec --cache-dir sweep-cache --quiet \
    --metrics-json-stable sweep_cold.json
"$bin" --spec sweep-perf.spec --cache-dir sweep-cache --quiet \
    --metrics-json-stable sweep_warm.json

# Same family of tripwire as the sanitizer check above, but
# caught post-hoc from the run itself: a baseline measured with
# tracing enabled at runtime would bake the recorder's overhead
# into the ratchet. The stable metrics JSON records whether
# traceEnable() ever ran in the measuring process.
if grep -q '"trace_active": true' cold.json warm.json \
    sweep_cold.json sweep_warm.json; then
    echo "error: a measurement ran with tracing enabled" \
         "(trace_active=true in its metrics); refresh the" \
         "baseline without --trace" >&2
    exit 1
fi

jq -s '{cold: .[0], warm: .[1],
        sweep_cold: .[2], sweep_warm: .[3]}' \
    cold.json warm.json sweep_cold.json sweep_warm.json > "$out"

echo "wrote $out:"
jq -r 'to_entries[] |
       "  \(.key): \(.value.jobs_per_second) jobs/sec"' "$out"

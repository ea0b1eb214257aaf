#!/bin/sh
# Work-stealing fleet smoke: kill a --serve worker mid-run with
# SIGKILL (no cleanup), then a survivor must steal its expired
# claims, finish the campaign, and export byte-identically to a
# single-worker reference; --merge must assemble the same bytes
# from the cache. A fresh orphan claim file may legitimately remain
# (the victim died holding it), so nothing asserts claim absence.
#
# Usage: fleet_worker_death.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 8-4,1-1,2-2' 'random_count = 4' \
    'per_memory_group = 1' 'memory_count = 1' \
    'body_size = 512' 'bootstrap = 0' > fleet.spec
"$bin" --spec fleet.spec --serve --threads 1 --cache-dir ref \
    --quiet --csv fleet-ref.csv

"$bin" --spec fleet.spec --serve --threads 1 --claim-ttl 5 \
    --claim-poll 0.2 --cache-dir pool --quiet &
victim=$!
# Let the victim claim and finish some work, then die.
n=0
for _ in $(seq 1 200); do
    n=$(ls pool/*.sample 2>/dev/null | wc -l)
    [ "$n" -ge 2 ] && break
    sleep 0.1
done
# Tolerate a victim that raced to completion: the steal path itself
# is unit-tested deterministically (test_claims); this smoke checks
# the end-to-end bytes either way.
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
echo "killed victim after $n cached samples"

"$bin" --spec fleet.spec --serve --threads 2 --claim-ttl 5 \
    --claim-poll 0.2 --cache-dir pool --quiet \
    --csv fleet-survivor.csv
cmp fleet-ref.csv fleet-survivor.csv
"$bin" --cache-dir pool --merge --csv fleet-merged.csv --quiet
cmp fleet-ref.csv fleet-merged.csv

cd ..
rm -rf "$work"

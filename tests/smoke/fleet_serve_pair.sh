#!/bin/sh
# Two concurrent --serve workers (2 threads each) drain one claim
# pool, and both exports must match a single-worker reference byte
# for byte. CI also runs it from a ThreadSanitizer build.
#
# Usage: fleet_serve_pair.sh <mprobe_campaign> <work-dir>
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
    'body_size = 512' 'bootstrap = 0' > pair.spec
"$bin" --spec pair.spec --serve --threads 1 --cache-dir ref \
    --quiet --csv pair-ref.csv

"$bin" --spec pair.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet --csv pair-a.csv &
worker_a=$!
"$bin" --spec pair.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet --csv pair-b.csv
wait "$worker_a"
cmp pair-ref.csv pair-a.csv
cmp pair-ref.csv pair-b.csv

cd ..
rm -rf "$work"

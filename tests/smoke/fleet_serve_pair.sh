#!/bin/sh
# Two concurrent --serve workers (2 threads each) drain one claim
# pool over a cost-skewed 8-4/1-1 config mix. Both exports, and the
# --merge of the shared cache (CSV and JSON), must match a plain
# single-threaded run byte for byte, and no temp file may leak into
# the shared cache. CI also runs it from a ThreadSanitizer build.
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
"$bin" --spec pair.spec --threads 1 --cache-dir ref --quiet \
    --csv pair-ref.csv --json pair-ref.json

"$bin" --spec pair.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet --csv pair-a.csv &
worker_a=$!
"$bin" --spec pair.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet --csv pair-b.csv
wait "$worker_a"
cmp pair-ref.csv pair-a.csv
cmp pair-ref.csv pair-b.csv
"$bin" --cache-dir pool --merge --csv pair-merged.csv \
    --json pair-merged.json --quiet
cmp pair-ref.csv pair-merged.csv
cmp pair-ref.json pair-merged.json
if ls pool/*.tmp.* 2>/dev/null; then
    echo "temp files leaked into the shared cache"
    exit 1
fi

cd ..
rm -rf "$work"

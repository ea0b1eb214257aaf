#!/bin/sh
# Sharded campaign: two shards into one shared cache directory (as
# two hosts would), then --merge, must export byte-identical CSV and
# JSON to an unsharded single-threaded run; --merge before every
# shard ran must refuse, and no temp file may leak into the shared
# cache.
#
# Usage: shard_merge.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 1-1,2-2,4-1' 'random_count = 4' \
    'per_memory_group = 1' 'memory_count = 1' \
    'body_size = 512' 'bootstrap = 0' > shard.spec
"$bin" --spec shard.spec --threads 1 --cache-dir ref --quiet \
    --csv shard-ref.csv --json shard-ref.json
"$bin" --spec shard.spec --shard 0/2 --cache-dir pool --quiet
if "$bin" --cache-dir pool --merge --csv /dev/null --quiet; then
    echo "merge of an incomplete campaign must fail"
    exit 1
fi
"$bin" --spec shard.spec --shard 1/2 --cache-dir pool --quiet
"$bin" --cache-dir pool --merge --csv shard-merged.csv \
    --json shard-merged.json --quiet
cmp shard-ref.csv shard-merged.csv
cmp shard-ref.json shard-merged.json
if ls pool/*.tmp.* 2>/dev/null; then
    echo "temp files leaked into the shared cache"
    exit 1
fi

cd ..
rm -rf "$work"

#!/bin/sh
# Undervolting axis: a vdds x freqs cross-product sweep drained by
# two concurrent --serve workers must merge byte-identical to a
# plain single-threaded run, including the
# on-curve collapse and the unreliable flags; 0.70 V sits below
# every workload's Vmin at these clocks, so the export must carry
# reliable=0 rows next to reliable=1 ones.
#
# Usage: undervolt_merge.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 1-1,2-2' 'freqs = 2.5,3.0' \
    'vdds = 0.70,0.92,1.0' 'random_count = 4' \
    'per_memory_group = 1' 'memory_count = 1' \
    'body_size = 512' 'bootstrap = 0' > uv.spec
"$bin" --spec uv.spec --threads 1 --cache-dir ref --quiet \
    --csv uv-ref.csv
grep -q ',0$' uv-ref.csv   # unreliable rows exported
grep -q ',1$' uv-ref.csv   # reliable rows too
"$bin" --spec uv.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet &
worker_a=$!
"$bin" --spec uv.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet
wait "$worker_a"
"$bin" --cache-dir pool --merge --csv uv-merged.csv --quiet
cmp uv-ref.csv uv-merged.csv

cd ..
rm -rf "$work"

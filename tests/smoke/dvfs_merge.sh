#!/bin/sh
# DVFS frequency axis: an operating-point sweep drained by two
# concurrent --serve workers must merge byte-identical to a plain
# single-threaded sweep, the export must carry the
# freq_ghz/epi_j/edp columns, and --calibrate must refit the cost
# model from the per-job wall times a --metrics-json run records.
#
# Usage: dvfs_merge.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 1-1,2-2,4-1' 'freqs = 2.0,3.0,3.5' \
    'random_count = 4' 'per_memory_group = 1' \
    'memory_count = 1' 'body_size = 512' \
    'bootstrap = 0' > dvfs.spec
"$bin" --spec dvfs.spec --threads 1 --cache-dir ref --quiet \
    --csv dvfs-ref.csv
head -1 dvfs-ref.csv | grep -q 'freq_ghz,epi_j,edp,vdd_volts,reliable'
"$bin" --spec dvfs.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet &
worker_a=$!
"$bin" --spec dvfs.spec --serve --threads 2 --claim-poll 0.1 \
    --cache-dir pool --quiet
wait "$worker_a"
"$bin" --cache-dir pool --merge --csv dvfs-merged.csv --quiet
cmp dvfs-ref.csv dvfs-merged.csv
"$bin" --spec dvfs.spec --threads 1 --cache-dir cal --quiet \
    --metrics-json dvfs-metrics.json
"$bin" --calibrate dvfs-metrics.json

cd ..
rm -rf "$work"

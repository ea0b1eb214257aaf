#!/bin/sh
# Campaign cache, determinism and resume: a 2-thread and a 1-thread
# run must export byte-identical samples (the second replays the
# first's cache), and after some cached results are dropped,
# --resume must complete exactly the missing jobs and reproduce the
# same export.
#
# Usage: campaign_resume.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 1-1,2-2' 'random_count = 4' \
    'per_memory_group = 1' 'memory_count = 1' \
    'body_size = 512' 'bootstrap = 0' > ci.spec
"$bin" --spec ci.spec --threads 2 --cache-dir cache --quiet \
    --csv run-a.csv
"$bin" --spec ci.spec --threads 1 --cache-dir cache --quiet \
    --csv run-b.csv
cmp run-a.csv run-b.csv
ls cache/*.sample | head -10 | xargs rm
"$bin" --spec ci.spec --threads 2 --cache-dir cache --quiet \
    --csv run-c.csv --resume
cmp run-a.csv run-c.csv

cd ..
rm -rf "$work"

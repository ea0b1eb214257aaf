#!/bin/sh
# Drop-directory service: three specs dropped into a watched
# directory run through one shared pool; per-campaign status.json
# and final exports appear, byte-identical to a standalone run of
# the same spec — on the freqs x vdds axes too — and a standalone
# run replaying the service's cache must export the same bytes (no
# poisoned entries). The per-campaign manifest supports --merge.
#
# Usage: service_drop.sh <mprobe_campaign> <work-dir>
# (ctest passes both; mprobe_service is built next to
# mprobe_campaign; the work directory is recreated.)
set -eu
bin=$1
work=$2
svc=$(dirname "$bin")/mprobe_service
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = random' 'random_count = 4' \
    'configs = 1-1,2-2' 'body_size = 512' \
    'bootstrap = 0' > svc-a.spec
printf '%s\n' 'categories = memory' \
    'per_memory_group = 1' 'memory_count = 1' \
    'configs = 1-1,2-1' 'body_size = 512' \
    'bootstrap = 0' > svc-b.spec
printf '%s\n' 'categories = random' 'random_count = 4' \
    'configs = 1-1,2-2' 'freqs = 2.5,3.0' \
    'vdds = 0.80,0.95' 'body_size = 512' \
    'bootstrap = 0' > svc-c.spec
"$bin" --spec svc-a.spec --threads 1 --cache-dir svc-ref --quiet \
    --csv svc-a-ref.csv
"$bin" --spec svc-c.spec --threads 1 --cache-dir svc-ref-c --quiet \
    --csv svc-c-ref.csv
mkdir -p drop
cp svc-a.spec drop/a.spec
cp svc-b.spec drop/b.spec
cp svc-c.spec drop/c.spec
"$svc" --drop-dir drop --cache-dir svc-cache --results-dir results \
    --threads 2 --poll-seconds 0.2 --status-seconds 0.2 \
    --exit-when-idle --quiet
grep -q '"state": "complete"' results/a/status.json
grep -q '"state": "complete"' results/b/status.json
grep -q '"state": "complete"' results/c/status.json
cmp svc-a-ref.csv results/a/samples.csv
cmp svc-c-ref.csv results/c/samples.csv
"$bin" --spec svc-c.spec --threads 1 --cache-dir svc-cache --quiet \
    --csv svc-c-shared.csv
cmp svc-c-ref.csv svc-c-shared.csv
# The per-campaign manifest supports a standalone merge.
"$bin" --merge --cache-dir svc-cache --manifest-dir results/a \
    --csv svc-a-merged.csv --quiet
cmp svc-a-ref.csv svc-a-merged.csv

cd ..
rm -rf "$work"

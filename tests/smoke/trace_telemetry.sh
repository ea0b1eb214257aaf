#!/bin/sh
# Observability: a traced 2-worker fleet run must produce
# Perfetto-loadable trace JSON and per-worker telemetry while every
# export stays byte-identical to an untraced single-process
# reference; --fleet-status tabulates the workers, the metrics JSON
# is schema v2, and the service aggregates the same telemetry into
# status.json (schema v2).
#
# Usage: trace_telemetry.sh <mprobe_campaign> <work-dir>
# (ctest passes both; mprobe_service is built next to
# mprobe_campaign; the work directory is recreated.)
set -eu
bin=$1
work=$2
svc=$(dirname "$bin")/mprobe_service
rm -rf "$work"
mkdir -p "$work"
cd "$work"

printf '%s\n' 'categories = memory, random' \
    'configs = 8-4,1-1,2-2' 'random_count = 4' \
    'per_memory_group = 1' 'memory_count = 1' \
    'body_size = 512' 'bootstrap = 0' > obs.spec
# Untraced single-process reference export.
"$bin" --spec obs.spec --threads 2 --cache-dir obs-ref --quiet \
    --csv obs-ref.csv --json obs-ref.json
# Two traced --serve workers drain one fresh pool.
"$bin" --spec obs.spec --serve --threads 1 --claim-poll 0.1 \
    --worker-id obs-a --cache-dir obs-pool --quiet \
    --trace obs-a.trace.json --csv obs-a.csv --json obs-a.json &
worker_a=$!
"$bin" --spec obs.spec --serve --threads 1 --claim-poll 0.1 \
    --worker-id obs-b --cache-dir obs-pool --quiet \
    --trace obs-b.trace.json --csv obs-b.csv
wait "$worker_a"
# Tracing never touches the result path: byte-identical.
cmp obs-ref.csv obs-a.csv
cmp obs-ref.csv obs-b.csv
cmp obs-ref.json obs-a.json
# Traces are valid JSON with paired spans and the fleet claim
# markers.
for t in obs-a.trace.json obs-b.trace.json; do
    python3 -m json.tool "$t" > /dev/null
    b=$(grep -c '"ph": "B"' "$t")
    e=$(grep -c '"ph": "E"' "$t")
    if [ "$b" -ne "$e" ]; then
        echo "$t has $b B events vs $e E events"
        exit 1
    fi
    if [ "$b" -le 0 ]; then
        echo "$t recorded no spans"
        exit 1
    fi
    grep -q '"name": "campaign.job"' "$t"
    grep -q '"name": "claim.acquire"' "$t"
done
# Each worker published its telemetry next to the claims and
# --fleet-status tabulates the directory.
grep -q 'worker obs-a' obs-pool/obs-a.telemetry
grep -q 'worker obs-b' obs-pool/obs-b.telemetry
"$bin" --cache-dir obs-pool --fleet-status > obs-fleet.txt
grep -q 'obs-a' obs-fleet.txt
grep -q 'obs-b' obs-fleet.txt
# Metrics schema v2: registry block plus the trace_active record
# of this traced warm run.
"$bin" --spec obs.spec --threads 1 --cache-dir obs-ref --quiet \
    --trace obs-warm.trace.json --metrics-json obs-metrics.json
python3 -m json.tool obs-metrics.json > /dev/null
grep -q '"schema_version": 2' obs-metrics.json
grep -q '"trace_active": true' obs-metrics.json
grep -q '"cache_corrupt"' obs-metrics.json
grep -q '"claims_stolen"' obs-metrics.json
grep -q '"counters"' obs-metrics.json
# A traced service pass over the same pool aggregates the whole
# fleet's telemetry into status.json (schema v2).
mkdir -p drop
cp obs.spec drop/obs.spec
"$svc" --drop-dir drop --cache-dir obs-pool --results-dir results \
    --threads 2 --poll-seconds 0.2 --status-seconds 0.2 \
    --trace obs-svc.trace.json --exit-when-idle --quiet
python3 -m json.tool obs-svc.trace.json > /dev/null
grep -q '"name": "service.ingest"' obs-svc.trace.json
python3 -m json.tool results/obs/status.json > /dev/null
grep -q '"schema_version": 2' results/obs/status.json
grep -q '"workers"' results/obs/status.json
grep -q '"worker": "obs-a"' results/obs/status.json
grep -q '"worker": "obs-b"' results/obs/status.json
cmp obs-ref.csv results/obs/samples.csv

cd ..
rm -rf "$work"

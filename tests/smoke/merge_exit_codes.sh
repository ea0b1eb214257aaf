#!/bin/sh
# --merge failure modes carry distinct, scriptable exit codes:
# 3 = cache dir missing, 4 = no manifest, 5 = jobs unfinished (and
# the stdout message counts the claimed ones). The unfinished
# campaign is a complete one with a few cached results dropped.
#
# Usage: merge_exit_codes.sh <mprobe_campaign> <work-dir>
# (ctest passes both; the work directory is recreated.)
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

expect_exit() {
    want=$1
    shift
    set +e
    "$@" > out.txt 2> err.txt
    rc=$?
    set -e
    if [ "$rc" -ne "$want" ]; then
        cat out.txt err.txt
        echo "$*: expected exit $want, got $rc"
        exit 1
    fi
}

expect_exit 3 "$bin" --merge --cache-dir no-such-cache-dir
mkdir -p empty-cache
expect_exit 4 "$bin" --merge --cache-dir empty-cache

printf '%s\n' 'categories = random' 'random_count = 4' \
    'configs = 1-1,2-2' 'body_size = 512' \
    'bootstrap = 0' > partial.spec
"$bin" --spec partial.spec --cache-dir partial-cache --quiet
ls partial-cache/*.sample | head -3 | xargs rm
expect_exit 5 "$bin" --merge --cache-dir partial-cache
grep -q 'jobs unfinished (.* currently claimed)' out.txt

cd ..
rm -rf "$work"

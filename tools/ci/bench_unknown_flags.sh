#!/usr/bin/env bash
# The bench binaries that read flags parse their whole command line
# strictly (bench::parallel_options): an unknown `-`-prefixed argument must
# print `unknown argument '<arg>'` and exit 2 before the bench runs, so a
# misspelt or retired flag cannot silently change nothing.
set -u

BENCH_DIR=${1:?usage: bench_unknown_flags.sh <build-dir>/bench}

status=0
# expect_rejected UNKNOWN COMMAND... : COMMAND must exit 2 and name UNKNOWN.
expect_rejected() {
    local unknown=$1
    shift
    local stderr code
    stderr=$("$@" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -eq 2 ] && [[ "$stderr" == *"unknown argument '$unknown'"* ]]; then
        echo "ok: $* -> exit 2"
    else
        echo "FAIL: $* -> exit $code, stderr: $stderr" >&2
        status=1
    fi
}

expect_rejected --no-such-flag "$BENCH_DIR/protocol_overhead" --smoke --no-such-flag
expect_rejected --jobz "$BENCH_DIR/thm52_strategyproofness" --jobz 4
expect_rejected --bogus "$BENCH_DIR/fig1_cp_timing" --bogus
exit "$status"

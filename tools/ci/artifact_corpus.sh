#!/usr/bin/env bash
# tools/ci/artifact_corpus.sh BUILD_DIR OUT_DIR — the fixed-seed artifact
# corpus behind every "artifacts stay byte-identical" claim.
#
# Runs examples/dlsbl_cli and examples/cheater_forensics from BUILD_DIR over
# a fixed scenario set and writes each deterministic artifact to its own
# file in OUT_DIR (which must be empty or absent):
#
#   <scenario>.stdout         outcome table + rendered event trace (--trace)
#   <scenario>.stderr         debug log lines
#   <scenario>.jsonl          JSONL event log
#   <scenario>.trace.json     catapult trace
#   <scenario>.metrics.txt    Prometheus-style metrics dump
#   forensics/                cheater_forensics: stdout (referee verdicts and
#                             ledger lines), stderr, one trace + metrics dump
#                             per cheater case
#
# Scenarios: NCP-FE, NCP-NFE, a control-message latency, two churn plans,
# and --repeat 4 at --jobs 1 and at --jobs 4. Profiler output is wall-clock
# and is never requested.
#
# To gate a change that must not move any artifact, build its parent commit
# in a second checkout, run the script on both builds and require an empty
# diff:
#
#   git worktree add ../parent HEAD~1
#   cmake -S ../parent -B ../parent/build
#   cmake --build ../parent/build --target dlsbl_cli cheater_forensics
#   cmake --build build --target dlsbl_cli cheater_forensics
#   tools/ci/artifact_corpus.sh ../parent/build ../corpus-parent
#   tools/ci/artifact_corpus.sh build ../corpus-change
#   diff -r ../corpus-parent ../corpus-change    # must print nothing
#   git worktree remove ../parent
#
# Every flag used below must be accepted by both builds; a scenario that
# exits non-zero aborts the script.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
BUILD_DIR=$(cd "$1" && pwd)
CLI="$BUILD_DIR/examples/dlsbl_cli"
FORENSICS="$BUILD_DIR/examples/cheater_forensics"
for bin in "$CLI" "$FORENSICS"; do
    if [[ ! -x "$bin" ]]; then
        echo "artifact_corpus: $bin not built" >&2
        exit 2
    fi
done
if [[ -e "$2" && -n "$(ls -A "$2")" ]]; then
    echo "artifact_corpus: $2 is not empty" >&2
    exit 2
fi
mkdir -p "$2/forensics"
OUT=$(cd "$2" && pwd)

W=1.0,2.0,1.5,0.8

# cli NAME FLAGS... — one dlsbl_cli scenario. Artifact paths are relative to
# OUT so nothing host-specific lands in the corpus.
cli() {
    local name=$1
    shift
    (cd "$OUT" && "$CLI" "$@" --log-level debug --trace \
        --jsonl-out "$name.jsonl" --trace-out "$name.trace.json" \
        --metrics-out "$name.metrics.txt" >"$name.stdout" 2>"$name.stderr")
}

cli fe --kind fe --w "$W" --seed 42
cli nfe --kind nfe --w "$W" --seed 42
cli latency --kind fe --w "$W" --seed 42 --latency 0.002
# Crash before bidding + stale rejoin + loss window, tightened deadlines.
cli churn_exclude --kind fe --w "$W" --seed 42 \
    --churn-plan 'crash:P3@0;restale:P3@0.9;loss:P2@0.4-5;policy:bid=0.5,detect=0.05,grace=0.8,pay=0.25'
# Crash mid-compute (meter lost, remaining blocks reallocated) + delay window.
cli churn_realloc --kind fe --w "$W" --seed 42 \
    --churn-plan 'crash:P4@0.35;delay:P2@0-0.1+0.03'
cli repeat_jobs1 --kind nfe --w "$W" --seed 7 --repeat 4 --jobs 1
cli repeat_jobs4 --kind nfe --w "$W" --seed 7 --repeat 4 --jobs 4

(cd "$OUT/forensics" && "$FORENSICS" --log-level debug \
    --trace-out trace_ --metrics-out metrics_ >stdout 2>stderr)

echo "artifact_corpus: $(find "$OUT" -type f | wc -l) files in $OUT"

#!/usr/bin/env bash
# tools/ci/check.sh — the one-command verification entry point:
#
#   configure -> build -> ctest (tier-1) -> native-arch payment rows
#             -> perfbench selftest -> dlsbl_lint
#             -> clang-tidy* -> cppcheck*                   (*when on PATH)
#
# Static and dynamic analysis share this entry point: set DLSBL_SANITIZE to
# route the build through a sanitizer matrix instead of the default build,
# e.g.
#
#   DLSBL_SANITIZE=address,undefined tools/ci/check.sh   # ASan+UBSan build
#   DLSBL_SANITIZE=thread           tools/ci/check.sh    # TSan build
#
# (Every default build already runs the always-on asan./tsan. smoke suites;
# the env var sanitizes the *whole* tree, which is slower but complete.)
#
# Environment knobs:
#   BUILD_DIR        build directory (default: build, or build-<sanitize>)
#   DLSBL_SANITIZE   forwarded to -DDLSBL_SANITIZE=... (see above)
#   CHECK_JOBS       parallelism (default: nproc)
#   CLANG_TIDY=0     skip clang-tidy even if installed
#   CPPCHECK=0       skip cppcheck even if installed
#
# Exit: non-zero if configure, build, ctest, the native-arch payment rows,
# the perfbench selftest, or dlsbl_lint fail. clang-tidy and cppcheck results are reported but
# advisory (their availability varies across machines; the gating analyses
# are compiled into the tree).
set -euo pipefail

cd "$(dirname "$0")/../.."
REPO_ROOT=$(pwd)
JOBS=${CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}

SANITIZE=${DLSBL_SANITIZE:-}
if [[ -n "$SANITIZE" ]]; then
    BUILD_DIR=${BUILD_DIR:-build-${SANITIZE//,/-}}
else
    BUILD_DIR=${BUILD_DIR:-build}
fi

step() { printf '\n=== %s ===\n' "$*"; }

step "configure ($BUILD_DIR${SANITIZE:+, sanitize=$SANITIZE})"
cmake -B "$BUILD_DIR" -S . \
    ${SANITIZE:+-DDLSBL_SANITIZE="$SANITIZE"} \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

step "build (-j$JOBS)"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "churn + property suites"
# The full ctest above already ran these (they are ordinary registered
# tests); re-running them as named stages keeps the fault-injection and
# truthfulness-under-churn verdicts legible in CI logs. The property label
# selects every randomized sweep; the churn scenario suite pins each fault
# plan's ruling and repeat-run byte-identity, including under the
# asan./tsan. sanitized variants built above.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(ChurnScenarios|asan\..*ChurnScenarios|tsan\..*ChurnScenarios)'
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L property

step "codec fuzz (flat wire smoke)"
# The full ctest above already ran the whole fuzz suite; this named stage
# re-runs the flat-codec slice (legacy/flat accept-set parity, encoder
# byte-identity, mutation and transplant rejection) and the Merkle
# multiproof verifier (peer-controlled proof lengths and indices) so a
# wire-format break is legible in CI logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(FuzzFlatCodec|asan\..*FuzzFlatCodec|MerkleMultiproof|asan\..*MerkleMultiproof)'

step "crypto batch identity (keys and verdicts)"
# The full ctest above already ran these; re-running the batch crypto suite
# (batched WOTS keygen against its independent reference, batch verify,
# the verify cache), plain and under the asan./tsan. variants, keeps a
# drift in keys or verdicts legible in CI logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(CryptoBatch|asan\..*CryptoBatch|tsan\..*CryptoBatch)'

step "signature budget (one-time keys per role)"
# The full ctest above already ran these; re-running the budget suite
# (every zoo strategy as the single deviant at the default MSS height, a
# spent signer refusing instead of throwing, the height-0 validate rule),
# plain and under the asan. variant, keeps a signer outgrowing its keys
# legible in CI logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(SignatureBudget|asan\..*SignatureBudget)'

step "payment rows (bit-exact)"
# The full ctest above already ran these; re-running the payment-row suite
# (the batched all-rows pass against the scalar row and the reduced-
# instance solve, the O(1) bonus rows, whole payment vectors), plain and
# under the asan. variant, keeps a payment bit that moved legible in CI
# logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(PaymentRowsBitExact|asan\..*PaymentRowsBitExact)'

step "trace exports (pinned)"
# The full ctest above already ran these; re-running the pinned export
# digests (render, catapult, Gantt bars and per-actor counts over runs that
# record every trace kind) and the network suite (fan-out order, slots,
# interceptor redelivery), plain and under the asan. variant, keeps a
# rendering drift in the fixed-size trace records legible in CI logs on
# its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(asan\.)?(TraceExportsPinned|Network)\.'

step "settlement (pinned)"
# The full ctest above already ran these; re-running the pinned settlement
# suite (settled Q against DLS-BL restated from the outcome, and payment-
# bit digests of churn runs: pro rata, a dead processor, exclusion under
# both NCP kinds) and the honest-run suite, plain and under the asan.
# variant, keeps a payment bit moved by the shared allocation and
# settlement routines legible in CI logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(asan\.)?((NcpKinds/)?HonestRun|SettlementPinned)\.'

step "native-arch payment bits ($BUILD_DIR-native)"
# The payment-row suite again, built with -march=native: its bit-exact
# comparisons fail if a*b + c is contracted into an FMA, which the
# -ffp-contract=off in the top-level CMakeLists.txt forbids. The portable
# build above has no FMA to contract into, so only this stage can catch a
# lost flag, and only on a host with FMA; elsewhere it passes either way.
cmake -B "$BUILD_DIR-native" -S . -DDLSBL_NATIVE_ARCH=ON \
    -DDLSBL_BUILD_BENCHMARKS=OFF -DDLSBL_BUILD_EXAMPLES=OFF -DDLSBL_BUILD_TOOLS=OFF
cmake --build "$BUILD_DIR-native" -j "$JOBS" --target test_property_payment_rows
"$BUILD_DIR-native/tests/test_property_payment_rows"

step "perfbench selftest (benchmark build gate)"
# perfbench (perfbench/CMakeLists.txt) compiles src/ straight into its own
# binary against the library's APIs, and ctest never builds it, so an API
# break it depends on would otherwise show only when the benchmark pipeline
# runs. The selftest builds it under .bench_build/ and runs every workload
# at its smoke size, twice per trace mode, checking oracle and digests.
python3 perfbench/run.py --selftest

step "bench-regress (perf gate)"
# The full ctest above already ran the bench-smoke suites (writing fresh
# BENCH_*.json into the build dir) and the bench_regress gate; re-running
# the label here surfaces the tracker's report in its own stage so a perf
# regression is legible in CI logs, not buried in the ctest summary.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L bench-regress

step "dlsbl_lint"
"$BUILD_DIR/tools/lint/dlsbl_lint" --root "$REPO_ROOT" \
    src tests bench examples tools

step "dlsbl_analyze (whole-program semantic passes)"
# Gating like dlsbl_lint, but flow-aware: determinism taint through the
# call graph, lock-order cycles, dispatch exhaustiveness, the layering DAG.
# The TU list comes from the compile database written above, closed over
# quoted includes; --timings prints a per-pass wall-clock breakdown and the
# SARIF artifact lands next to the other build outputs. The analyzer must
# stay interactive: assert the whole run fits the 10s budget (same bound
# the analyze.tree ctest enforces via TIMEOUT).
ANALYZE_START=$(date +%s)
"$BUILD_DIR/tools/analyze/dlsbl_analyze" --root "$REPO_ROOT" \
    --compile-db "$BUILD_DIR/compile_commands.json" \
    --timings \
    --sarif-out "$BUILD_DIR/dlsbl_analyze.sarif" \
    --json-out "$BUILD_DIR/dlsbl_analyze.json" \
    src
ANALYZE_ELAPSED=$(( $(date +%s) - ANALYZE_START ))
echo "dlsbl_analyze: ${ANALYZE_ELAPSED}s total (budget 10s)"
if [[ "$ANALYZE_ELAPSED" -ge 10 ]]; then
    echo "dlsbl_analyze: exceeded the 10s runtime budget" >&2
    exit 1
fi

if [[ "${CLANG_TIDY:-1}" != 0 ]] && command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy (advisory)"
    # Library sources only: bench/test TUs drown the output in gtest macro
    # expansion. .clang-tidy at the repo root carries the curated profile.
    find src tools/lint -name '*.cpp' -print0 |
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet ||
        echo "clang-tidy: findings above are advisory"
else
    step "clang-tidy: not found or disabled — skipped"
fi

if [[ "${CPPCHECK:-1}" != 0 ]] && command -v cppcheck >/dev/null 2>&1; then
    step "cppcheck (advisory)"
    cppcheck --enable=warning,performance,portability \
        --suppressions-list=tools/ci/cppcheck.suppress \
        --inline-suppr --quiet --std=c++20 \
        -I src src tools/lint ||
        echo "cppcheck: findings above are advisory"
else
    step "cppcheck: not found or disabled — skipped"
fi

step "check.sh: all gating stages passed"

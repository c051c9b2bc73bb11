// Per-layer measurements for the traced run.
//
// Two sources, both outside src/: the profiler scopes and counters the
// program already keeps (read after each traced op), and probes — the
// benchmark timing a layer's public function on the op's own inputs.
// Each probe that could drift from what the program does is checked
// against the run it stands for (fidelity checks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/outcome.hpp"
#include "workloads.hpp"

namespace perfbench {

// What a RunObserver captured from one traced run.
struct RunCounters {
    std::uint64_t trace_events = 0;
    std::uint64_t load_transfers = 0;
    std::uint64_t disputes_opened = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    dlsbl::crypto::Digest root{};
};

RunCounters observe_run(const dlsbl::protocol::RunInternals& internals);

// Profiler scope totals, read off Profiler::report().
struct ScopeTotals {
    double run_s = 0.0;           // protocol_run, inclusive
    double unattributed_s = 0.0;  // protocol_run time outside every other scope
};
ScopeTotals scope_totals();

double median(std::vector<double> values);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// Times each layer's public call on `run` (one protocol run of the first
// traced op, with the outcome and counters it produced) and appends the
// results to `metrics`. Fidelity failures are appended to `failures`.
void run_probes(const RunInput& run, const dlsbl::protocol::ProtocolOutcome& outcome,
                const RunCounters& counters, std::vector<Metric>& metrics,
                std::vector<std::string>& failures);

}  // namespace perfbench

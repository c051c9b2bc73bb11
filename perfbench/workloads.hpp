// Workload definitions, per-op inputs and the per-run outcome oracle.
//
// One op is one protocol::run_protocol call (bulk_load, wide_bus) or one
// pass over the nine §4 offenses (disputes). Inputs depend only on the
// workload seed and the op index: op k of seed s is the same on every
// machine and every commit, and two ops never share a protocol seed, so no
// key, data set or verification cache can be reused across ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "protocol/outcome.hpp"
#include "protocol/runner.hpp"

namespace perfbench {

struct WorkloadSpec {
    std::string name;
    std::size_t processors = 0;  // m
    std::size_t blocks = 0;      // B
    bool disputes = false;       // one op = one pass over the nine offenses
    // Ops every run makes whatever its time budget; the exact metrics
    // (makespan, user_paid, control_bytes, truthful_losers) average over
    // this prefix, so they repeat exactly for a given seed.
    std::size_t exact_ops = 0;
};

// The three named workloads, full size or the m = 4 smoke size.
std::optional<WorkloadSpec> find_workload(std::string_view name, bool smoke);

// One protocol run of an op.
struct RunInput {
    dlsbl::protocol::ProtocolConfig config;
    std::string offense;  // empty: every processor honest
    std::string deviant;  // the processor playing `offense`
};

std::vector<RunInput> make_op(const WorkloadSpec& spec, std::uint64_t workload_seed,
                              std::size_t op_index);

// The oracle's reduction of one run. `failure` is empty when the run's
// outcome is what the mechanism prescribes for its input.
struct RunRecord {
    double makespan = 0.0;
    double user_paid = 0.0;
    std::uint64_t control_bytes = 0;
    std::size_t truthful_losers = 0;
    std::uint64_t digest = 0;
    std::string failure;
};

RunRecord check_run(const RunInput& input, const dlsbl::protocol::ProtocolOutcome& outcome);

// FNV-1a over every outcome field that is a pure function of the input.
std::uint64_t outcome_digest(const dlsbl::protocol::ProtocolOutcome& outcome);

}  // namespace perfbench

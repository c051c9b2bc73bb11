// Observer access to a run's wired-up internals — context, referee, nodes,
// trace and network metrics — before they are torn down. This surface is
// for tests and forensics tooling; everything else should depend only on the
// public runner.hpp (ProtocolConfig -> ProtocolOutcome).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "protocol/context.hpp"
#include "protocol/detail/artifacts.hpp"
#include "protocol/node.hpp"
#include "protocol/referee.hpp"
#include "protocol/runner.hpp"

namespace dlsbl::protocol {

struct RunInternals {
    RunContext& context;
    RefereeCore& referee;
    const std::vector<std::unique_ptr<NodeCore>>& nodes;
    RunArtifacts artifacts;

    // Convenience accessors for the two artifact handles observers use most.
    [[nodiscard]] sim::TraceRecorder& trace() const noexcept { return artifacts.trace; }
    [[nodiscard]] sim::NetworkMetrics& network_metrics() const noexcept {
        return artifacts.metrics;
    }
};
using RunObserver = std::function<void(const RunInternals&)>;

// Observer-taking overload (no observer default here: the observer-free
// entry point lives in the public runner.hpp).
ProtocolOutcome run_protocol(const ProtocolConfig& config, const RunObserver& observer);

}  // namespace dlsbl::protocol

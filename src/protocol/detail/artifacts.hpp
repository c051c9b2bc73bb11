// Definition of protocol::RunArtifacts (forward-declared in the sans-I/O
// endpoint.hpp): the post-run artifact handles a Driver exposes. Lives in
// detail/ because it names sim:: types — the trace recorder and the network
// metrics the catapult/gantt and Prometheus exports are rendered from. The
// trace's records hold name ids, not text: readers render a record's names
// and detail through the recorder (`actor(event)`, `detail(event)`).
#pragma once

#include "protocol/endpoint.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace dlsbl::protocol {

struct RunArtifacts {
    sim::TraceRecorder& trace;
    sim::NetworkMetrics& metrics;
};

}  // namespace dlsbl::protocol

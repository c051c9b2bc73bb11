// End-to-end execution of DLS-BL-NCP: the library's primary entry point.
//
//   ProtocolConfig config;
//   config.kind = dlt::NetworkKind::kNcpFE;
//   config.z = 0.2;
//   config.true_w = {1.0, 2.0, 1.5};
//   ProtocolOutcome outcome = run_protocol(config);
//
// Builds the driver (transport + clock), PKI, user data set, processor
// cores and referee core, runs the event loop to quiescence, and extracts
// the outcome (allocations, payments, fines, utilities, communication
// metrics).
//
// Tests and forensics tooling that need the wired internals use the
// observer-taking overload in protocol/detail/run_internals.hpp instead.
#pragma once

#include "protocol/config.hpp"
#include "protocol/outcome.hpp"

namespace dlsbl::protocol {

ProtocolOutcome run_protocol(const ProtocolConfig& config);

}  // namespace dlsbl::protocol

// Cheater forensics: runs one protocol execution per deviant strategy and
// prints the referee's case file — the accusation, the evidence checks, the
// verdict, and where the money went — by replaying the signed-message trace.
//
// Usage:
//   cheater_forensics [--log-level off|error|warn|info|debug]
//                     [--trace-out <prefix>] [--metrics-out <prefix>]
//
// --trace-out / --metrics-out are prefixes: each case writes
// <prefix><case>.json (Chrome trace-event, open in chrome://tracing or
// Perfetto) / <prefix><case>.txt (Prometheus-style metrics).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "agents/zoo.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

std::string g_trace_prefix;
std::string g_metrics_prefix;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: cheater_forensics [--log-level off|error|warn|info|debug]\n"
                 "                         [--trace-out PREFIX]   one Chrome-trace JSON "
                 "per case\n"
                 "                         [--metrics-out PREFIX] one metrics dump per "
                 "case\n");
    std::exit(2);
}

// "strategy (as P3, NCP-FE)" -> "strategy_P3_NCP-FE", safe in a filename.
std::string case_slug(const protocol::Strategy& strategy, std::size_t slot,
                      dlt::NetworkKind kind) {
    return strategy.name + "_P" + std::to_string(slot + 1) + "_" +
           std::string(dlt::to_string(kind));
}

void investigate(const protocol::Strategy& strategy, std::size_t slot,
                 dlt::NetworkKind kind) {
    protocol::ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(4, agents::truthful());
    config.strategies[slot] = strategy;

    std::printf("\n=== case: %s (as P%zu, %s) ===\n", strategy.name.c_str(), slot + 1,
                dlt::to_string(kind));

    const std::string slug = case_slug(strategy, slot, kind);
    const auto outcome = protocol::run_protocol(config, [&](const auto& internals) {
        if (!g_trace_prefix.empty()) {
            obs::write_catapult_file(g_trace_prefix + slug + ".json",
                                     internals.trace());
        }
        if (!g_metrics_prefix.empty()) {
            std::ofstream out(g_metrics_prefix + slug + ".txt");
            if (out) out << internals.context.metrics_registry().prometheus_text();
        }
        // Replay the referee's verdict lines from the network trace.
        for (const auto& event :
             internals.trace().filter(sim::TraceKind::kVerdict)) {
            std::printf("  t=%.6f  referee: %s\n", event.time,
                        internals.trace().detail(event).c_str());
        }
        // And the money movements.
        for (const auto& entry : internals.context.ledger().history()) {
            if (entry.memo.rfind("payment", 0) == 0) continue;  // routine settlements
            std::printf("  ledger: %-10s -> %-10s %9.4f  (%s)\n", entry.from.c_str(),
                        entry.to.c_str(), entry.amount, entry.memo.c_str());
        }
    });

    std::printf("  outcome: %s%s\n",
                outcome.terminated_early ? "protocol TERMINATED — " : "settled — ",
                outcome.termination_reason.empty() ? "no incident"
                                                   : outcome.termination_reason.c_str());
    for (const auto& p : outcome.processors) {
        std::printf("  %-3s utility %+9.4f %s\n", p.name.c_str(), p.utility(),
                    p.fined ? "[FINED]" : "");
    }
}

}  // namespace

int main(int argc, char** argv) {
    obs::install_logger_bridge();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--log-level") {
            util::LogLevel level;
            if (!obs::parse_log_level(next(), level)) usage();
            obs::set_log_level(level);
        } else if (arg == "--trace-out") {
            g_trace_prefix = next();
        } else if (arg == "--metrics-out") {
            g_metrics_prefix = next();
        } else {
            usage();
        }
    }

    std::printf("DLS-BL-NCP forensics: one run per deviant strategy.\n");
    std::printf("Honest control run first:\n");
    investigate(agents::truthful(), 2, dlt::NetworkKind::kNcpFE);

    for (const auto& strategy : agents::worker_deviants()) {
        investigate(strategy, 2, dlt::NetworkKind::kNcpFE);
    }
    for (const auto& strategy : agents::lo_deviants()) {
        investigate(strategy, 0, dlt::NetworkKind::kNcpFE);  // P1 is the NCP-FE LO
    }
    // The NFE class puts the load origin last: replay one LO case there too.
    investigate(agents::short_shipping_lo(), 3, dlt::NetworkKind::kNcpNFE);
    return 0;
}

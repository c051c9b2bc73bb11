// Fixed-seed equivalence of runs on the protocol driver.
//
// The sim driver hosts the sans-I/O cores (NodeCore / RefereeCore) in every
// run. For a fixed config it has to produce byte-identical artifacts —
// outcome, fines ledger, JSONL event log, rendered trace, catapult export,
// per-run metrics — on a repeat run, and the plain run_protocol(config) has
// to produce the same outcome and JSONL as the observed
// run_protocol(config, observer), since the observer only reads. Checked
// across honest and cheating agent zoos, a bandwidth-charged control plane
// and several seeds.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "agents/zoo.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig base_config(dlt::NetworkKind kind) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// Deterministic rendering of everything an outcome carries; two runs agree
// iff their renderings agree byte-for-byte.
std::string render_outcome(const ProtocolOutcome& outcome) {
    std::ostringstream out;
    out.precision(17);
    out << "terminated=" << outcome.terminated_early
        << " reason=" << outcome.termination_reason
        << " ended_in=" << to_string(outcome.ended_in)
        << " fine=" << outcome.fine_amount << " makespan=" << outcome.makespan
        << " user_paid=" << outcome.user_paid
        << " msgs=" << outcome.control_messages
        << " bytes=" << outcome.control_bytes << "\n";
    for (const auto& [phase, bytes] : outcome.bytes_by_phase) {
        out << "phase " << phase << " bytes=" << bytes << "\n";
    }
    for (const auto& p : outcome.processors) {
        out << p.name << " w=" << p.true_w << " bid=" << p.bid
            << " rate=" << p.exec_rate << " alpha=" << p.alpha
            << " assigned=" << p.blocks_assigned
            << " received=" << p.blocks_received << " phi=" << p.phi
            << " commenced=" << p.commenced_work << " comp=" << p.compensation
            << " bonus=" << p.bonus << " payment=" << p.payment
            << " fines=" << p.fines << " rewards=" << p.rewards
            << " fined=" << p.fined << " cost=" << p.work_cost << "\n";
    }
    return out.str();
}

std::string render_ledger(const Ledger& ledger) {
    std::ostringstream out;
    out.precision(17);
    for (const auto& entry : ledger.history()) {
        out << entry.from << " -> " << entry.to << " " << entry.amount << " ("
            << entry.memo << ")\n";
    }
    return out.str();
}

// Every byte-identity artifact from one run. An unobserved run fills only
// `outcome` and `jsonl`.
struct RunCapture {
    std::string outcome;
    std::string ledger;
    std::string jsonl;
    std::string trace;
    std::string catapult;
    std::string run_metrics;
};

RunCapture capture(const ProtocolConfig& config, bool observed) {
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream jsonl;
    log.add_sink(std::make_shared<obs::JsonlSink>(jsonl));
    log.set_level(util::LogLevel::Debug);

    RunCapture capture;
    const auto outcome =
        observed ? run_protocol(config,
                                [&](const RunInternals& internals) {
                                    capture.ledger =
                                        render_ledger(internals.context.ledger());
                                    capture.trace = internals.trace().render();
                                    capture.catapult =
                                        obs::catapult_from_trace(internals.trace());
                                    capture.run_metrics = internals.context
                                                              .metrics_registry()
                                                              .prometheus_text();
                                })
                 : run_protocol(config);
    log.flush();
    log.reset();
    capture.outcome = render_outcome(outcome);
    capture.jsonl = jsonl.str();
    return capture;
}

// Returns the first run's JSONL so callers can compare across configs.
std::string expect_equivalent(const ProtocolConfig& config, const std::string& label) {
    const RunCapture first = capture(config, /*observed=*/true);
    const RunCapture second = capture(config, /*observed=*/true);
    const RunCapture plain = capture(config, /*observed=*/false);
    EXPECT_FALSE(first.outcome.empty()) << label;
    EXPECT_FALSE(first.trace.empty()) << label;
    EXPECT_FALSE(first.jsonl.empty()) << label;
    EXPECT_EQ(first.outcome, second.outcome) << label;
    EXPECT_EQ(first.ledger, second.ledger) << label;
    EXPECT_EQ(first.jsonl, second.jsonl) << label;
    EXPECT_EQ(first.trace, second.trace) << label;
    EXPECT_EQ(first.catapult, second.catapult) << label;
    EXPECT_EQ(first.run_metrics, second.run_metrics) << label;
    EXPECT_EQ(first.outcome, plain.outcome) << label;
    EXPECT_EQ(first.jsonl, plain.jsonl) << label;
    return first.jsonl;
}

TEST(DriverEquivalence, HonestRunsMatchByteForByte) {
    for (const auto kind : {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE}) {
        expect_equivalent(base_config(kind), dlt::to_string(kind));
    }
}

TEST(DriverEquivalence, BandwidthChargedControlPlaneMatches) {
    auto config = base_config(dlt::NetworkKind::kNcpFE);
    config.control_latency = 0.002;
    config.control_seconds_per_byte = 1e-5;
    expect_equivalent(config, "bandwidth-charged");
}

TEST(DriverEquivalence, WorkerDeviantZooMatches) {
    for (const auto kind : {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE}) {
        const auto deviants = agents::worker_deviants();
        for (std::size_t i = 0; i < deviants.size(); ++i) {
            auto config = base_config(kind);
            config.strategies[2] = deviants[i];
            expect_equivalent(config, std::string(dlt::to_string(kind)) +
                                          " worker_deviant#" + std::to_string(i));
        }
    }
}

TEST(DriverEquivalence, LoDeviantZooMatches) {
    const auto deviants = agents::lo_deviants();
    for (std::size_t i = 0; i < deviants.size(); ++i) {
        auto config = base_config(dlt::NetworkKind::kNcpFE);
        config.strategies[0] = deviants[i];
        expect_equivalent(config, "lo_deviant#" + std::to_string(i));
    }
}

TEST(DriverEquivalence, SeedsChangeArtifactsConsistently) {
    // Different seed -> different event log, but every seed reproduces its
    // own artifacts exactly.
    std::set<std::string> logs;
    for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        auto config = base_config(dlt::NetworkKind::kNcpNFE);
        config.seed = seed;
        logs.insert(expect_equivalent(config, "seed=" + std::to_string(seed)));
    }
    EXPECT_EQ(logs.size(), 3u);
}

}  // namespace
}  // namespace dlsbl::protocol

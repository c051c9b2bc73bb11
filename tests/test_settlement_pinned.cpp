// Pins the settled payment vector of fixed-seed runs, bit for bit.
//
// Without churn, every settled Q must equal DLS-BL restated from the
// outcome: DlsBl(kind, z, bids).payments(w̃) with w̃_j = φ_j / (n_j / B), or
// the bid b_j when P_j was assigned no block. The runs cover both NCP kinds,
// a processor with 0 blocks, and a payment cheater, whose dispute makes the
// referee settle its own recompute.
//
// Under churn the settlement is pro rata and has no closed restatement, so
// each run is pinned by an FNV-1a digest of the bits of the settled vector
// and of every payment vector a node computed. The runs cover a crash
// mid-compute (reallocation and pro rata), a crash mid-transfer (a dead
// processor that ran nothing) and a crash before bidding under both NCP
// kinds (exclusion). The expected digests are those of the code before
// the node, the referee and churn settlement shared one settlement routine.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "agents/zoo.hpp"
#include "mech/dls_bl.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig base_config(dlt::NetworkKind kind, std::size_t blocks = 1200) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = blocks;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

void expect_restated_payments(const ProtocolConfig& config) {
    const auto outcome = run_protocol(config);
    ASSERT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    const std::size_t m = outcome.processors.size();
    const double blocks = static_cast<double>(config.block_count);
    std::vector<double> bids(m);
    std::vector<double> exec(m);
    for (std::size_t j = 0; j < m; ++j) {
        const auto& p = outcome.processors[j];
        bids[j] = p.bid;
        const double fraction = static_cast<double>(p.blocks_assigned) / blocks;
        exec[j] = fraction > 0.0 ? p.phi / fraction : p.bid;
    }
    const mech::DlsBl mechanism(config.kind, config.z, bids);
    const auto q = mechanism.payments(std::span<const double>(exec)).payment;
    for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(outcome.processors[j].payment, q[j]) << outcome.processors[j].name;
    }
}

TEST(SettlementPinned, HonestNcpFeMatchesRestatedDlsBl) {
    expect_restated_payments(base_config(dlt::NetworkKind::kNcpFE));
}

TEST(SettlementPinned, HonestNcpNfeMatchesRestatedDlsBl) {
    expect_restated_payments(base_config(dlt::NetworkKind::kNcpNFE));
}

TEST(SettlementPinned, ZeroBlockProcessorIsPaidAtItsBid) {
    // Three blocks over four processors: someone gets none.
    const auto config = base_config(dlt::NetworkKind::kNcpFE, 3);
    const auto outcome = run_protocol(config);
    std::size_t zero_block = 0;
    for (const auto& p : outcome.processors) zero_block += p.blocks_assigned == 0 ? 1 : 0;
    EXPECT_GT(zero_block, 0u);
    expect_restated_payments(config);
}

TEST(SettlementPinned, RefereeRecomputeMatchesRestatedDlsBl) {
    auto config = base_config(dlt::NetworkKind::kNcpFE);
    config.strategies[2] = agents::payment_cheater();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.processor("P3").fined);
    expect_restated_payments(config);
}

// FNV-1a over the bits of the settled vector, then of each node's vector.
struct ChurnPayments {
    std::uint64_t digest = 14695981039346656037ULL;
    std::size_t fined = 0;

    void add(std::span<const double> values) {
        for (const double value : values) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &value, sizeof bits);
            for (int byte = 0; byte < 8; ++byte) {
                digest ^= (bits >> (8 * byte)) & 0xffU;
                digest *= 1099511628211ULL;
            }
        }
    }
};

ChurnPayments churn_payments(dlt::NetworkKind kind, const char* plan_spec) {
    auto config = base_config(kind, 240);
    const auto plan = ChurnPlan::parse(plan_spec);
    EXPECT_TRUE(plan.has_value()) << plan_spec;
    if (plan) config.churn_plan = *plan;
    ChurnPayments out;
    const auto outcome = run_protocol(config, [&](const RunInternals& internals) {
        EXPECT_TRUE(internals.referee.settled()) << plan_spec;
        out.add(internals.referee.settled_payments());
        for (const auto& node : internals.nodes) out.add(node->payment_vector());
    });
    out.fined = outcome.fined_count();
    return out;
}

void expect_digest(const ChurnPayments& got, std::uint64_t digest) {
    EXPECT_EQ(got.digest, digest) << std::hex << "digest 0x" << got.digest;
    EXPECT_EQ(got.fined, 0u);
}

TEST(SettlementPinned, CrashMidComputeProRata) {
    expect_digest(churn_payments(dlt::NetworkKind::kNcpFE, "crash:P4@0.35"),
                  0xda7d3c00e195b1a5ULL);
}

TEST(SettlementPinned, CrashMidTransferDeadRanNothing) {
    expect_digest(churn_payments(dlt::NetworkKind::kNcpFE,
                                 "crash:P2@0.02;policy:grace=0.8"),
                  0x7e8bfa955778a08dULL);
}

TEST(SettlementPinned, CrashBeforeBidExcludesNcpFe) {
    expect_digest(churn_payments(dlt::NetworkKind::kNcpFE, "crash:P3@0"),
                  0x4f95276605123195ULL);
}

TEST(SettlementPinned, CrashBeforeBidExcludesNcpNfe) {
    expect_digest(churn_payments(dlt::NetworkKind::kNcpNFE, "crash:P3@0"),
                  0x423be7fbc29c45a5ULL);
}

}  // namespace
}  // namespace dlsbl::protocol

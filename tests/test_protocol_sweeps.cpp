// Randomized, parameterized end-to-end sweeps: the protocol's invariants
// must hold across network kinds, system sizes, seeds, latencies and
// signature schemes — not just on the hand-picked fixtures.
#include <gtest/gtest.h>

#include <tuple>

#include "agents/zoo.hpp"
#include "mech/properties.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig random_config(dlt::NetworkKind kind, std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng{seed};
    const auto instance = mech::random_instance(kind, m, rng);
    ProtocolConfig config;
    config.kind = kind;
    config.z = instance.z;
    config.true_w = instance.w;
    config.block_count = 300 * m;  // keeps block-rounding noise ~1/300 per processor
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.seed = seed;
    return config;
}

class HonestSweep
    : public ::testing::TestWithParam<std::tuple<dlt::NetworkKind, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    KindsSizesSeeds, HonestSweep,
    ::testing::Combine(::testing::Values(dlt::NetworkKind::kNcpFE,
                                         dlt::NetworkKind::kNcpNFE),
                       ::testing::Values(2, 3, 5, 9, 14), ::testing::Values(1, 2, 3)));

TEST_P(HonestSweep, InvariantsHold) {
    const auto [kind, m, seed] = GetParam();
    const auto config = random_config(kind, static_cast<std::size_t>(m),
                                      static_cast<std::uint64_t>(seed) * 7919);
    double ledger_total = 1.0;
    const auto outcome = run_protocol(config, [&](const RunInternals& internals) {
        ledger_total = internals.context.ledger().total();
        EXPECT_TRUE(internals.referee.learned_bids().empty());
    });

    // 1. Honest runs settle without fines.
    EXPECT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    EXPECT_EQ(outcome.fined_count(), 0u);
    // 2. Money is conserved.
    EXPECT_NEAR(ledger_total, 0.0, 1e-9);
    // 3. All load is assigned and processed.
    std::size_t blocks = 0;
    double alpha_sum = 0.0;
    for (const auto& p : outcome.processors) {
        blocks += p.blocks_assigned;
        alpha_sum += p.alpha;
        EXPECT_TRUE(p.commenced_work);
        // 4. Voluntary participation (block-rounding tolerance).
        EXPECT_GE(p.utility(), -2e-3) << p.name;
    }
    EXPECT_EQ(blocks, config.block_count);
    EXPECT_NEAR(alpha_sum, 1.0, 1e-9);
    // 5. Happy-path message count is exactly 2m + 2.
    EXPECT_EQ(outcome.control_messages, 2 * config.true_w.size() + 2);
    // 6. The simulated makespan matches the analytic optimum.
    dlt::ProblemInstance instance{config.kind, config.z, config.true_w};
    const double analytic = dlt::optimal_makespan(instance);
    EXPECT_NEAR(outcome.makespan, analytic, 2e-2 * analytic);
}

class DeviantSweep
    : public ::testing::TestWithParam<std::tuple<dlt::NetworkKind, int>> {};

INSTANTIATE_TEST_SUITE_P(KindsSeeds, DeviantSweep,
                         ::testing::Combine(::testing::Values(dlt::NetworkKind::kNcpFE,
                                                              dlt::NetworkKind::kNcpNFE),
                                            ::testing::Values(11, 12, 13)));

TEST_P(DeviantSweep, EveryDeviantCaughtOnRandomInstances) {
    const auto [kind, seed] = GetParam();
    const auto base = random_config(kind, 5, static_cast<std::uint64_t>(seed) * 104729);
    const std::size_t lo = dlt::load_origin_index(kind, 5);
    const std::size_t worker = (lo == 0) ? 3 : 1;

    for (const auto& strategy : agents::worker_deviants()) {
        auto config = base;
        config.strategies.assign(5, agents::truthful());
        config.strategies[worker] = strategy;
        const auto outcome = run_protocol(config);
        EXPECT_TRUE(outcome.processors[worker].fined) << strategy.name;
        EXPECT_EQ(outcome.fined_count(), 1u) << strategy.name;
    }
    for (const auto& strategy : agents::lo_deviants()) {
        auto config = base;
        config.strategies.assign(5, agents::truthful());
        config.strategies[lo] = strategy;
        const auto outcome = run_protocol(config);
        EXPECT_TRUE(outcome.processors[lo].fined) << strategy.name;
    }
}

class LatencySweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweep,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05));

TEST_P(LatencySweep, HonestRunsRobustToControlLatency) {
    auto config = random_config(dlt::NetworkKind::kNcpFE, 4, 555);
    config.control_latency = GetParam();
    const auto outcome = run_protocol(config);
    EXPECT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_GT(outcome.user_paid, 0.0);
    // Control latency shifts the schedule but cannot shrink it below the
    // zero-latency optimum.
    dlt::ProblemInstance instance{config.kind, config.z, config.true_w};
    EXPECT_GE(outcome.makespan, 0.95 * dlt::optimal_makespan(instance));
}

TEST_P(LatencySweep, DeviantsCaughtUnderLatency) {
    auto config = random_config(dlt::NetworkKind::kNcpFE, 4, 777);
    config.control_latency = GetParam();
    config.strategies.assign(4, agents::truthful());
    config.strategies[2] = agents::inconsistent_bidder();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.processors[2].fined);
    config.strategies[2] = agents::payment_cheater();
    const auto outcome2 = run_protocol(config);
    EXPECT_TRUE(outcome2.processors[2].fined);
}

class SignatureSweep : public ::testing::TestWithParam<crypto::SignatureAlgorithm> {};

INSTANTIATE_TEST_SUITE_P(Schemes, SignatureSweep,
                         ::testing::Values(crypto::SignatureAlgorithm::kMerkleWots,
                                           crypto::SignatureAlgorithm::kFast),
                         [](const auto& param_info) -> std::string {
                             return param_info.param == crypto::SignatureAlgorithm::kMerkleWots
                                        ? "MerkleWots"
                                        : "Fast";
                         });

TEST_P(SignatureSweep, OutcomesIdenticalAcrossSchemes) {
    // The signature scheme must not affect any economic outcome.
    auto config = random_config(dlt::NetworkKind::kNcpNFE, 3, 901);
    config.signature_algorithm = GetParam();
    config.mss_height = 3;
    const auto outcome = run_protocol(config);
    EXPECT_FALSE(outcome.terminated_early);
    // Compare against the Fast reference.
    auto reference_config = config;
    reference_config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    const auto reference = run_protocol(reference_config);
    for (std::size_t i = 0; i < outcome.processors.size(); ++i) {
        EXPECT_DOUBLE_EQ(outcome.processors[i].payment, reference.processors[i].payment);
        EXPECT_DOUBLE_EQ(outcome.processors[i].phi, reference.processors[i].phi);
    }
    EXPECT_DOUBLE_EQ(outcome.makespan, reference.makespan);
}

TEST_P(SignatureSweep, DeviantCaughtUnderBothSchemes) {
    auto config = random_config(dlt::NetworkKind::kNcpFE, 3, 333);
    config.signature_algorithm = GetParam();
    config.mss_height = 4;
    config.strategies.assign(3, agents::truthful());
    config.strategies[1] = agents::false_accuser();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.processors[1].fined);
    EXPECT_FALSE(outcome.processors[0].fined);
}

}  // namespace
}  // namespace dlsbl::protocol

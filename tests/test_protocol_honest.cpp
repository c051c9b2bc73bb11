// End-to-end tests of DLS-BL-NCP with every processor honest: the protocol
// must reproduce the analytic DLT schedule and the DLS-BL payments, levy no
// fines, keep the referee passive, and conserve money.
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "mech/dls_bl.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig honest_config(dlt::NetworkKind kind, double z, std::vector<double> w,
                             std::size_t blocks = 1200) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = z;
    config.true_w = std::move(w);
    config.block_count = blocks;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;  // speed
    return config;
}

class HonestRun : public ::testing::TestWithParam<dlt::NetworkKind> {};

INSTANTIATE_TEST_SUITE_P(NcpKinds, HonestRun,
                         ::testing::Values(dlt::NetworkKind::kNcpFE,
                                           dlt::NetworkKind::kNcpNFE),
                         [](const auto& param_info) {
                             return param_info.param == dlt::NetworkKind::kNcpFE ? "FE"
                                                                                 : "NFE";
                         });

TEST_P(HonestRun, CompletesWithoutFines) {
    const auto outcome =
        run_protocol(honest_config(GetParam(), 0.25, {1.0, 2.0, 1.5, 0.8}));
    EXPECT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    EXPECT_EQ(outcome.ended_in, Phase::kDone);
    EXPECT_EQ(outcome.fined_count(), 0u);
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.fines, 0.0) << p.name;
        EXPECT_DOUBLE_EQ(p.rewards, 0.0) << p.name;
        EXPECT_TRUE(p.commenced_work) << p.name;
    }
}

TEST_P(HonestRun, SimulatedMakespanMatchesAnalyticOptimum) {
    const std::vector<double> w{1.0, 2.0, 1.5, 0.8};
    const double z = 0.25;
    const auto outcome = run_protocol(honest_config(GetParam(), z, w, 6000));
    dlt::ProblemInstance instance{GetParam(), z, w};
    const double analytic = dlt::optimal_makespan(instance);
    // Block rounding granularity bounds the gap: one block is 1/6000 load.
    EXPECT_NEAR(outcome.makespan, analytic, analytic * 5e-3);
}

TEST_P(HonestRun, PaymentsMatchCentralizedDlsBl) {
    const std::vector<double> w{1.3, 0.9, 2.1};
    const double z = 0.3;
    const auto outcome = run_protocol(honest_config(GetParam(), z, w, 3000));
    ASSERT_FALSE(outcome.terminated_early);

    const mech::DlsBl mechanism(GetParam(), z, w);
    const auto breakdown = mechanism.payments(std::span<const double>(w));
    for (std::size_t i = 0; i < w.size(); ++i) {
        // Block rounding perturbs the observed execution values slightly.
        EXPECT_NEAR(outcome.processors[i].payment, breakdown.payment[i],
                    0.01 * std::abs(breakdown.payment[i]) + 1e-3)
            << "P" << i + 1;
    }
}

TEST_P(HonestRun, TruthfulUtilitiesNonNegative) {
    const auto outcome =
        run_protocol(honest_config(GetParam(), 0.2, {1.0, 1.7, 2.4, 0.9, 1.2}, 4000));
    ASSERT_FALSE(outcome.terminated_early);
    for (const auto& p : outcome.processors) {
        EXPECT_GE(p.utility(), -1e-3) << p.name;  // tolerance = block rounding
    }
}

TEST_P(HonestRun, RefereeStaysPassive) {
    run_protocol(honest_config(GetParam(), 0.25, {1.0, 2.0}),
                 [](const RunInternals& internals) {
                     // No dispute ever forced bid disclosure.
                     EXPECT_TRUE(internals.referee.learned_bids().empty());
                     EXPECT_TRUE(internals.referee.fines().empty());
                     EXPECT_TRUE(internals.referee.settled());
                 });
}

TEST_P(HonestRun, LedgerConservation) {
    run_protocol(honest_config(GetParam(), 0.25, {1.0, 2.0, 3.0}),
                 [](const RunInternals& internals) {
                     EXPECT_NEAR(internals.context.ledger().total(), 0.0, 1e-9);
                     // The user paid exactly what the processors received.
                     double processors_sum = 0.0;
                     for (const auto& name : internals.context.processor_names()) {
                         processors_sum += internals.context.ledger().balance(name);
                     }
                     EXPECT_NEAR(
                         internals.context.ledger().balance(
                             internals.context.user_name()),
                         -processors_sum, 1e-9);
                 });
}

TEST_P(HonestRun, UserPaysSumOfPayments) {
    const auto outcome = run_protocol(honest_config(GetParam(), 0.25, {1.0, 2.0, 3.0}));
    double sum = 0.0;
    for (const auto& p : outcome.processors) sum += p.payment;
    EXPECT_NEAR(outcome.user_paid, sum, 1e-9);
}

TEST_P(HonestRun, CommunicationIsTwoMPlusTwoMessages) {
    // Happy path: m bid broadcasts + 1 meter broadcast + m payment vectors
    // + 1 settle broadcast.
    for (std::size_t m : {2u, 4u, 7u}) {
        std::vector<double> w(m, 1.0);
        for (std::size_t i = 0; i < m; ++i) w[i] = 1.0 + 0.1 * static_cast<double>(i);
        const auto outcome = run_protocol(honest_config(GetParam(), 0.2, w));
        EXPECT_EQ(outcome.control_messages, 2 * m + 2) << "m=" << m;
    }
}

TEST_P(HonestRun, PaymentPhaseDominatesBytes) {
    std::vector<double> w(8);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0 + 0.2 * static_cast<double>(i);
    const auto outcome = run_protocol(honest_config(GetParam(), 0.2, w));
    std::uint64_t payments = 0, total = 0;
    for (const auto& [phase, bytes] : outcome.bytes_by_phase) {
        total += bytes;
        if (phase == "ComputingPayments") payments += bytes;
    }
    EXPECT_GT(payments * 2, total);  // > 50 %
}

TEST_P(HonestRun, TwoProcessorsMinimal) {
    const auto outcome = run_protocol(honest_config(GetParam(), 0.1, {1.0, 1.0}));
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_NEAR(outcome.processors[0].alpha + outcome.processors[1].alpha, 1.0, 1e-12);
}

TEST_P(HonestRun, MerkleSignaturesEndToEnd) {
    // Same run with the real hash-based signature scheme.
    auto config = honest_config(GetParam(), 0.25, {1.0, 2.0});
    config.signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    config.mss_height = 3;
    const auto outcome = run_protocol(config);
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
}

TEST(HonestRunMisc, DeterministicAcrossRuns) {
    const auto config = honest_config(dlt::NetworkKind::kNcpFE, 0.25, {1.0, 2.0, 1.5});
    const auto a = run_protocol(config);
    const auto b = run_protocol(config);
    ASSERT_EQ(a.processors.size(), b.processors.size());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.user_paid, b.user_paid);
    EXPECT_EQ(a.control_bytes, b.control_bytes);
    for (std::size_t i = 0; i < a.processors.size(); ++i) {
        EXPECT_EQ(a.processors[i].payment, b.processors[i].payment);
        EXPECT_EQ(a.processors[i].phi, b.processors[i].phi);
    }
}

TEST(HonestRunMisc, RejectsCpKind) {
    ProtocolConfig config;
    config.kind = dlt::NetworkKind::kCP;
    config.true_w = {1.0, 2.0};
    EXPECT_THROW(run_protocol(config), std::invalid_argument);
}

TEST(HonestRunMisc, RejectsSingleProcessor) {
    ProtocolConfig config;
    config.true_w = {1.0};
    EXPECT_THROW(run_protocol(config), std::invalid_argument);
}

TEST(HonestRunMisc, SlowExecutorIsNotFinedButEarnsLess) {
    // Running slower than bid is *not* a protocol offense; the payment rule
    // absorbs it (mechanism with verification).
    auto config = honest_config(dlt::NetworkKind::kNcpFE, 0.25, {1.0, 2.0, 1.5}, 3000);
    auto honest = run_protocol(config);
    config.strategies.assign(3, Strategy{});
    config.strategies[1].name = "slow";
    config.strategies[1].exec_factor = 1.5;
    auto slowed = run_protocol(config);
    EXPECT_FALSE(slowed.terminated_early);
    EXPECT_EQ(slowed.fined_count(), 0u);
    EXPECT_LT(slowed.processors[1].utility(), honest.processors[1].utility());
}

}  // namespace
}  // namespace dlsbl::protocol

// Signature budget: how many one-time keys each role spends in one run,
// and what a signer with no key left does.
//
// An honest processor signs two messages per run (its bid and its payment
// vector); a scripted deviant signs at most three. The default MSS height
// must cover that for every strategy in the zoo, and a core whose signer
// is spent refuses to sign (counted) instead of throwing out of the run.
#include "agents/zoo.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlsbl::protocol {
namespace {

ProtocolConfig budget_config(dlt::NetworkKind kind) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.2;
    config.true_w = {1.0, 1.4, 0.9, 1.2, 1.6, 1.1};
    config.block_count = 240;
    config.seed = 11;
    config.signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// Every named strategy of the agent zoo, honest and valuation misreporters
// included.
std::vector<Strategy> zoo() {
    return {agents::truthful(),           agents::underbidder(),
            agents::overbidder(),         agents::slow_executor(),
            agents::masked_overbidder(),  agents::inconsistent_bidder(),
            agents::short_shipping_lo(),  agents::over_shipping_lo(),
            agents::corrupting_lo(),      agents::refusing_lo(),
            agents::payment_cheater(),    agents::contradictory_payer(),
            agents::bid_vector_tamperer(), agents::false_accuser(),
            agents::false_short_claimer(), agents::junk_spammer(),
            agents::silent_observer()};
}

struct BudgetRun {
    ProtocolOutcome outcome;
    std::vector<std::size_t> spent;  // signatures spent, per processor
    std::string metrics;             // the run's Prometheus text
};

BudgetRun run_counting(const ProtocolConfig& config) {
    BudgetRun run;
    const std::size_t capacity = std::size_t{1} << config.mss_height;
    run.outcome = run_protocol(config, [&](const RunInternals& internals) {
        for (const auto& node : internals.nodes) {
            run.spent.push_back(capacity - node->signatures_left());
        }
        run.metrics = internals.context.metrics_registry().prometheus_text();
    });
    return run;
}

TEST(SignatureBudget, DefaultHeightCoversEveryZooStrategy) {
    std::size_t deviant_max = 0;
    for (const auto kind : {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE}) {
        for (const auto& deviant : zoo()) {
            for (const std::size_t position : {0u, 2u, 5u}) {
                auto config = budget_config(kind);
                config.strategies[position] = deviant;
                const std::string where = std::string(dlt::to_string(kind)) + " " +
                                          deviant.name + " at P" +
                                          std::to_string(position + 1);
                BudgetRun run;
                ASSERT_NO_THROW(run = run_counting(config)) << where;
                ASSERT_EQ(run.spent.size(), config.true_w.size()) << where;
                EXPECT_EQ(run.metrics.find(kSignaturesRefusedMetric), std::string::npos)
                    << where;
                for (std::size_t i = 0; i < run.spent.size(); ++i) {
                    if (i == position) {
                        EXPECT_LE(run.spent[i], 3u) << where;
                        deviant_max = std::max(deviant_max, run.spent[i]);
                    } else if (run.outcome.terminated_early) {
                        EXPECT_LE(run.spent[i], 2u) << where << ", P" << i + 1;
                    } else {
                        EXPECT_EQ(run.spent[i], 2u) << where << ", P" << i + 1;
                    }
                }
            }
        }
    }
    // The bound is reached: the contradictory payer signs a bid and two
    // payment vectors.
    EXPECT_EQ(deviant_max, 3u);
}

TEST(SignatureBudget, SpentSignerRefusesInsteadOfThrowing) {
    // Height 1 holds two keys: an honest bid plus payment vector fit, the
    // contradictory payer's second vector does not. It is refused, so the
    // referee never sees the contradiction and the run settles fine-free.
    auto config = budget_config(dlt::NetworkKind::kNcpFE);
    config.mss_height = 1;
    config.strategies[2] = agents::contradictory_payer();
    std::uint64_t refused = 0;
    std::vector<std::size_t> left;
    ProtocolOutcome outcome;
    ASSERT_NO_THROW(outcome = run_protocol(config, [&](const RunInternals& internals) {
        refused =
            internals.context.metrics_registry().counter(kSignaturesRefusedMetric).value();
        for (const auto& node : internals.nodes) left.push_back(node->signatures_left());
    }));
    EXPECT_EQ(refused, 1u);
    EXPECT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    EXPECT_EQ(outcome.fined_count(), 0u);
    for (std::size_t i = 0; i < left.size(); ++i) EXPECT_EQ(left[i], 0u) << "P" << i + 1;
}

TEST(SignatureBudget, ValidateRejectsHeightZeroForMss) {
    auto config = budget_config(dlt::NetworkKind::kNcpFE);
    config.signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    config.mss_height = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(run_protocol(config)), std::invalid_argument);
    auto fast = budget_config(dlt::NetworkKind::kNcpFE);
    fast.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    fast.mss_height = 0;
    EXPECT_NO_THROW(fast.validate());
}

TEST(SignatureBudget, ConfigAndSignerShareOneDefaultHeight) {
    crypto::Pki pki;
    auto mss = crypto::make_registered_signer(pki, "P1", 3,
                                              crypto::SignatureAlgorithm::kMerkleWots);
    EXPECT_EQ(ProtocolConfig{}.mss_height, crypto::kDefaultMssHeight);
    EXPECT_EQ(mss->signatures_left(), std::size_t{1} << crypto::kDefaultMssHeight);
    // The scripted maximum (a bid and two payment vectors) fits.
    EXPECT_GE(mss->signatures_left(), 3u);
    static_cast<void>(mss->sign(util::to_bytes("bid")));
    EXPECT_EQ(mss->signatures_left(), (std::size_t{1} << crypto::kDefaultMssHeight) - 1);

    auto fast =
        crypto::make_registered_signer(pki, "P2", 3, crypto::SignatureAlgorithm::kFast);
    static_cast<void>(fast->sign(util::to_bytes("bid")));
    EXPECT_EQ(fast->signatures_left(), std::numeric_limits<std::size_t>::max());
}

}  // namespace
}  // namespace dlsbl::protocol

#include "mech/dls_bl.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dlt/finish_time.hpp"
#include "dlt/sequencing.hpp"

namespace dlsbl::mech {
namespace {

TEST(DlsBl, RequiresTwoProcessors) {
    EXPECT_THROW(DlsBl(dlt::NetworkKind::kNcpFE, 0.5, {1.0}), std::invalid_argument);
}

TEST(DlsBl, AllocationMatchesDlt) {
    const std::vector<double> bids{1.0, 2.0, 3.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpFE, 0.5, bids);
    dlt::ProblemInstance instance;
    instance.kind = dlt::NetworkKind::kNcpFE;
    instance.z = 0.5;
    instance.w = bids;
    const auto expected = dlt::optimal_allocation(instance);
    for (std::size_t i = 0; i < bids.size(); ++i) {
        EXPECT_DOUBLE_EQ(mechanism.allocation()[i], expected[i]);
    }
}

TEST(DlsBl, CompensationReimbursesCost) {
    const std::vector<double> bids{1.0, 2.0, 3.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpFE, 0.5, bids);
    const auto breakdown = mechanism.payments(std::span<const double>(bids));
    for (std::size_t i = 0; i < bids.size(); ++i) {
        EXPECT_DOUBLE_EQ(breakdown.compensation[i],
                         mechanism.allocation()[i] * bids[i]);
    }
}

TEST(DlsBl, UtilityEqualsBonus) {
    // U_i = Q_i + V_i = C_i + B_i - α_i w̃_i = B_i.
    const std::vector<double> bids{2.0, 1.5, 2.5, 1.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpNFE, 0.3, bids);
    const auto breakdown = mechanism.payments(std::span<const double>(bids));
    for (std::size_t i = 0; i < bids.size(); ++i) {
        EXPECT_NEAR(breakdown.utility[i], breakdown.bonus[i], 1e-12);
    }
}

TEST(DlsBl, TruthfulBonusIsMarginalContribution) {
    // For a truthful agent executing as bid: B_i = T_{-i} - T(α(b), b) >= 0,
    // i.e. exactly its contribution to reducing the makespan.
    const std::vector<double> bids{1.0, 2.0, 3.0, 1.2};
    for (auto kind : {dlt::NetworkKind::kCP, dlt::NetworkKind::kNcpFE,
                      dlt::NetworkKind::kNcpNFE}) {
        const DlsBl mechanism(kind, 0.4, bids);
        const double full = mechanism.bid_makespan();
        for (std::size_t i = 0; i < bids.size(); ++i) {
            const double bonus = mechanism.bonus_of(i, bids[i]);
            EXPECT_NEAR(bonus, mechanism.exclusion_makespan(i) - full, 1e-12);
            EXPECT_GE(bonus, -1e-12) << dlt::to_string(kind) << " i=" << i;
        }
    }
}

TEST(DlsBl, SlowExecutionReducesBonus) {
    const std::vector<double> bids{1.0, 2.0, 3.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpFE, 0.5, bids);
    for (std::size_t i = 0; i < bids.size(); ++i) {
        const double honest = mechanism.bonus_of(i, bids[i]);
        const double slow = mechanism.bonus_of(i, bids[i] * 2.0);
        EXPECT_LT(slow, honest) << i;
    }
}

TEST(DlsBl, RealizedMakespanUsesExecutionValues) {
    const std::vector<double> bids{1.0, 2.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpFE, 0.5, bids);
    EXPECT_DOUBLE_EQ(mechanism.realized_makespan(std::span<const double>(bids)),
                     mechanism.bid_makespan());
    const std::vector<double> slow{2.0, 2.0};
    EXPECT_GT(mechanism.realized_makespan(std::span<const double>(slow)),
              mechanism.bid_makespan());
}

TEST(DlsBl, PaymentIsCompensationPlusBonus) {
    const std::vector<double> bids{1.1, 0.9, 2.2};
    const DlsBl mechanism(dlt::NetworkKind::kCP, 0.2, bids);
    const std::vector<double> exec{1.1, 1.4, 2.2};  // P2 executes slower
    const auto breakdown = mechanism.payments(std::span<const double>(exec));
    for (std::size_t i = 0; i < bids.size(); ++i) {
        EXPECT_NEAR(breakdown.payment[i],
                    breakdown.compensation[i] + breakdown.bonus[i], 1e-12);
    }
}

TEST(DlsBl, ExclusionMakespanMatchesSequencing) {
    const std::vector<double> bids{1.0, 2.0, 3.0};
    const DlsBl mechanism(dlt::NetworkKind::kNcpNFE, 0.5, bids);
    dlt::ProblemInstance instance;
    instance.kind = dlt::NetworkKind::kNcpNFE;
    instance.z = 0.5;
    instance.w = bids;
    for (std::size_t i = 0; i < bids.size(); ++i) {
        const auto exclusion = std::bit_cast<std::uint64_t>(mechanism.exclusion_makespan(i));
        EXPECT_EQ(exclusion,
                  std::bit_cast<std::uint64_t>(dlt::leave_one_out_makespan(instance, i)));
        EXPECT_EQ(exclusion, std::bit_cast<std::uint64_t>(dlt::optimal_makespan(
                                 dlt::remove_processor(instance, i))));
    }
}

TEST(DlsBl, InputValidation) {
    const DlsBl mechanism(dlt::NetworkKind::kCP, 0.5, {1.0, 2.0});
    const std::vector<double> wrong_size{1.0};
    EXPECT_THROW(mechanism.payments(std::span<const double>(wrong_size)),
                 std::invalid_argument);
    EXPECT_THROW((void)mechanism.realized_makespan(std::span<const double>(wrong_size)),
                 std::invalid_argument);
    EXPECT_THROW((void)mechanism.exclusion_makespan(5), std::out_of_range);
}

TEST(DlsBl, VoluntaryParticipationSpot) {
    // Truthful agents never lose (Theorem 3.2): U_i = B_i >= 0.
    // (z = 0.6 <= w_m keeps the NFE instance in the full-participation
    // regime the theorem assumes.)
    const std::vector<double> bids{0.8, 3.0, 1.7, 2.2, 0.9};
    for (auto kind : {dlt::NetworkKind::kCP, dlt::NetworkKind::kNcpFE,
                      dlt::NetworkKind::kNcpNFE}) {
        const DlsBl mechanism(kind, 0.6, bids);
        const auto breakdown = mechanism.payments(std::span<const double>(bids));
        for (double u : breakdown.utility) EXPECT_GE(u, -1e-12);
    }
}

}  // namespace
}  // namespace dlsbl::mech

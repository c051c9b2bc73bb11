// Bit-exact pins for the allocation-free payment rows. A DLS-BL payment is
// money that every node and the referee must compute to the same bytes, so
// the leave-one-out makespan (dlt::leave_one_out_makespan), the batched
// pass over all rows (dlt::leave_one_out_makespans) and the O(1) bonus rows
// of mech::DlsBl are compared with the re-evaluations they replaced as raw
// IEEE-754 bit patterns, never within a tolerance:
//   * leave_one_out_makespan(w, i) == optimal_makespan(remove_processor(w, i));
//   * leave_one_out_makespans(w)[i] == both of the above, also for rates
//     six orders of magnitude apart and for z = 0;
//   * bonus_of(i, w̃_i) and payments(w̃) == that leave-one-out value minus
//     makespan_generic over the mixed vector (b_-i, w̃_i).
// All three network kinds, m = 2..64 plus 255, 256, 257 and 1024 (so every
// remainder of the batched pass's lane groups, with the load origin's row
// first, last or absent), every i (the load origin included), and
// execution values at, above and below the bid.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "dlt/finish_time.hpp"
#include "dlt/sequencing.hpp"
#include "mech/dls_bl.hpp"
#include "util/rng.hpp"

namespace dlsbl {
namespace {

using dlt::NetworkKind;

constexpr NetworkKind kKinds[] = {NetworkKind::kCP, NetworkKind::kNcpFE,
                                  NetworkKind::kNcpNFE};
constexpr double kZs[] = {0.05, 0.6};
// w̃_i / b_i: truthful, slower than bid, faster than bid.
constexpr double kExecFactors[] = {1.0, 1.37, 0.61};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::size_t> sizes() {
    std::vector<std::size_t> out;
    for (std::size_t m = 2; m <= 64; ++m) out.push_back(m);
    for (const std::size_t m : {255, 256, 257, 1024}) out.push_back(m);
    return out;
}

dlt::ProblemInstance make_instance(NetworkKind kind, std::size_t m, double z) {
    util::Xoshiro256 rng{
        util::derive_seed(0xB17E, m * 4 + static_cast<std::uint64_t>(kind))};
    dlt::ProblemInstance instance;
    instance.kind = kind;
    instance.z = z;
    instance.w.resize(m);
    for (double& w : instance.w) w = rng.uniform(0.8, 2.0);
    return instance;
}

// Rates from U[1e-3, 1e3]: chain ratios and shares spread over many
// binades, where a reordered sum or a reciprocal would show in the bits.
dlt::ProblemInstance make_spread_instance(NetworkKind kind, std::size_t m, double z) {
    util::Xoshiro256 rng{
        util::derive_seed(0x5B1D, m * 4 + static_cast<std::uint64_t>(kind))};
    dlt::ProblemInstance instance;
    instance.kind = kind;
    instance.z = z;
    instance.w.resize(m);
    for (double& w : instance.w) w = rng.uniform(1e-3, 1e3);
    return instance;
}

// The path leave_one_out_makespan replaced: build the reduced system, solve.
double reference_exclusion(const dlt::ProblemInstance& instance, std::size_t i) {
    return dlt::optimal_makespan(dlt::remove_processor(instance, i));
}

// The bonus as it was computed before the O(1) rows: the realized makespan
// re-evaluated over the whole mixed vector.
double reference_bonus(const dlt::ProblemInstance& instance,
                       const dlt::LoadAllocation& alpha, std::size_t i, double exec) {
    std::vector<double> mixed = instance.w;
    mixed[i] = exec;
    return reference_exclusion(instance, i) -
           dlt::makespan_generic<double>(instance.kind, std::span<const double>(alpha),
                                         std::span<const double>(mixed), instance.z);
}

TEST(PaymentRowsBitExact, LeaveOneOutMatchesReducedInstanceSolve) {
    for (const NetworkKind kind : kKinds) {
        for (const double z : kZs) {
            for (const std::size_t m : sizes()) {
                const auto instance = make_instance(kind, m, z);
                for (std::size_t i = 0; i < m; ++i) {
                    ASSERT_EQ(bits(dlt::leave_one_out_makespan(instance, i)),
                              bits(reference_exclusion(instance, i)))
                        << dlt::to_string(kind) << " z=" << z << " m=" << m << " i=" << i;
                }
            }
        }
    }
}

TEST(PaymentRowsBitExact, LeaveOneOutChecksLikeTheReducedInstance) {
    dlt::ProblemInstance instance{NetworkKind::kNcpFE, 0.1, {1.0}};
    EXPECT_THROW((void)dlt::leave_one_out_makespan(instance, 0), std::invalid_argument);
    instance.w = {1.0, 2.0};
    EXPECT_THROW((void)dlt::leave_one_out_makespan(instance, 2), std::out_of_range);
    // Only the kept processors are validated, as in the reduced instance.
    instance.w = {1.0, -2.0, 1.5};
    EXPECT_THROW((void)dlt::leave_one_out_makespan(instance, 0), std::invalid_argument);
    EXPECT_EQ(bits(dlt::leave_one_out_makespan(instance, 1)),
              bits(reference_exclusion(instance, 1)));
}

TEST(PaymentRowsBitExact, AllRowsMatchRowByRow) {
    constexpr double kAllRowZs[] = {0.0, 0.05, 0.6};
    std::vector<double> out;
    for (const NetworkKind kind : kKinds) {
        for (const double z : kAllRowZs) {
            for (const std::size_t m : sizes()) {
                for (const bool spread : {false, true}) {
                    const auto instance =
                        spread ? make_spread_instance(kind, m, z) : make_instance(kind, m, z);
                    out.assign(m, std::numeric_limits<double>::quiet_NaN());
                    dlt::leave_one_out_makespans(instance, out);
                    for (std::size_t i = 0; i < m; ++i) {
                        ASSERT_EQ(bits(out[i]), bits(dlt::leave_one_out_makespan(instance, i)))
                            << dlt::to_string(kind) << " z=" << z << " m=" << m
                            << " spread=" << spread << " i=" << i;
                        ASSERT_EQ(bits(out[i]), bits(reference_exclusion(instance, i)))
                            << dlt::to_string(kind) << " z=" << z << " m=" << m
                            << " spread=" << spread << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(PaymentRowsBitExact, AllRowsCheckLikeTheRows) {
    std::vector<double> slots(4);
    dlt::ProblemInstance instance{NetworkKind::kNcpFE, 0.1, {1.0}};
    EXPECT_THROW(dlt::leave_one_out_makespans(instance, std::span<double>(slots).first(1)),
                 std::invalid_argument);
    instance.w = {1.0, 2.0, 1.5};
    // One slot per processor, no fewer and no more.
    EXPECT_THROW(dlt::leave_one_out_makespans(instance, std::span<double>(slots).first(2)),
                 std::invalid_argument);
    EXPECT_THROW(dlt::leave_one_out_makespans(instance, slots), std::invalid_argument);
    const std::span<double> out = std::span<double>(slots).first(3);
    // Every rate is kept by some row, so every rate is checked.
    for (const double bad : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        for (const std::size_t at : {0u, 1u, 2u}) {
            instance.w = {1.0, 2.0, 1.5};
            instance.w[at] = bad;
            EXPECT_THROW(dlt::leave_one_out_makespans(instance, out), std::invalid_argument)
                << "w[" << at << "] = " << bad;
        }
    }
    instance.w = {1.0, 2.0, 1.5};
    instance.z = -0.1;
    EXPECT_THROW(dlt::leave_one_out_makespans(instance, out), std::invalid_argument);
    instance.z = std::numeric_limits<double>::infinity();
    EXPECT_THROW(dlt::leave_one_out_makespans(instance, out), std::invalid_argument);
}

TEST(PaymentRowsBitExact, BonusMatchesFullReevaluation) {
    for (const NetworkKind kind : kKinds) {
        for (const double z : kZs) {
            for (const std::size_t m : sizes()) {
                const auto instance = make_instance(kind, m, z);
                const mech::DlsBl mechanism(kind, z, instance.w);
                for (std::size_t i = 0; i < m; ++i) {
                    for (const double factor : kExecFactors) {
                        const double exec = instance.w[i] * factor;
                        ASSERT_EQ(bits(mechanism.bonus_of(i, exec)),
                                  bits(reference_bonus(instance, mechanism.allocation(), i,
                                                       exec)))
                            << dlt::to_string(kind) << " z=" << z << " m=" << m
                            << " i=" << i << " exec/bid=" << factor;
                    }
                }
            }
        }
    }
}

TEST(PaymentRowsBitExact, PaymentsMatchFullReevaluation) {
    for (const NetworkKind kind : kKinds) {
        for (const double z : kZs) {
            for (const std::size_t m : sizes()) {
                const auto instance = make_instance(kind, m, z);
                std::vector<double> exec(m);
                for (std::size_t j = 0; j < m; ++j) {
                    exec[j] = instance.w[j] * kExecFactors[j % std::size(kExecFactors)];
                }
                const mech::DlsBl mechanism(kind, z, instance.w);
                const auto& alpha = mechanism.allocation();
                const auto breakdown = mechanism.payments(std::span<const double>(exec));
                for (std::size_t i = 0; i < m; ++i) {
                    const double bonus = reference_bonus(instance, alpha, i, exec[i]);
                    ASSERT_EQ(bits(breakdown.bonus[i]), bits(bonus))
                        << dlt::to_string(kind) << " z=" << z << " m=" << m << " i=" << i;
                    ASSERT_EQ(bits(breakdown.payment[i]), bits(alpha[i] * exec[i] + bonus))
                        << dlt::to_string(kind) << " z=" << z << " m=" << m << " i=" << i;
                }
            }
        }
    }
}

}  // namespace
}  // namespace dlsbl

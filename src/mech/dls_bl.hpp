// The DLS-BL mechanism (Grosu & Carroll [9], restated in §3 of the paper):
// a Compensation-and-Bonus mechanism with verification for divisible-load
// scheduling on bus networks.
//
//   * Each processor P_i has true unit-processing time t_i = w_i (private),
//     reports a bid b_i, and is later observed executing at w̃_i >= w_i.
//   * Output function: α(b) — the optimal BUS-LINEAR allocation computed
//     from the bids (dlt/closed_form.hpp).
//   * Valuation: V_i = -α_i w̃_i (linear cost model, §2).
//   * Payment:   Q_i(b, w̃) = C_i + B_i with
//       C_i = α_i w̃_i                                  (compensation)
//       B_i = T(α(b_-i), b_-i) - T(α(b), (b_-i, w̃_i))  (bonus)
//     where T(α(b_-i), b_-i) is the optimal makespan of the system without
//     P_i and the second term is the realized makespan: allocation from the
//     bids, processor i executing at w̃_i, everyone else at their bid.
//   * Utility: U_i = Q_i + V_i = B_i (compensation cancels the valuation).
//
// DLS-BL-NCP (protocol/) uses these exact allocation and payment functions;
// the paper's Theorems 5.2 and 5.3 inherit from Theorems 3.1 and 3.2 via
// that identity, which tests/test_protocol.cpp checks numerically.
#pragma once

#include <span>
#include <vector>

#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "dlt/sequencing.hpp"

namespace dlsbl::mech {

struct PaymentBreakdown {
    std::vector<double> compensation;  // C_i = α_i w̃_i
    std::vector<double> bonus;         // B_i
    std::vector<double> payment;       // Q_i = C_i + B_i
    std::vector<double> utility;       // U_i = Q_i - α_i w̃_i  (== B_i)
};

class DlsBl {
 public:
    // kind/z describe the bus system; bids become the w-vector handed to the
    // BUS-LINEAR allocation algorithm. Requires >= 2 processors (the bonus
    // compares against the leave-one-out system).
    DlsBl(dlt::NetworkKind kind, double z, std::vector<double> bids);

    [[nodiscard]] const dlt::LoadAllocation& allocation() const noexcept { return alpha_; }
    [[nodiscard]] const dlt::ProblemInstance& bid_instance() const noexcept {
        return instance_;
    }

    // Makespan if every processor executed exactly as bid: T(α(b), b).
    [[nodiscard]] double bid_makespan() const;

    // Realized makespan with observed execution values (w̃): T(α(b), w̃).
    [[nodiscard]] double realized_makespan(std::span<const double> exec_values) const;

    // Payments given the observed per-unit execution times w̃ (same length
    // as the bid vector). Unless every leave-one-out row is cached, it
    // solves all m in one dlt::leave_one_out_makespans pass, Θ(m²) flops
    // (m rows of O(m), vectorized 8 rows at a time); then each row costs
    // O(1).
    [[nodiscard]] PaymentBreakdown payments(std::span<const double> exec_values) const;

    // Single-agent views (used by property checkers and benches). bonus_of
    // solves only row i (dlt::leave_one_out_makespan, O(m)) unless it is
    // cached, then costs O(1), and equals the bonus re-evaluated over the
    // full mixed vector bit for bit.
    [[nodiscard]] double bonus_of(std::size_t i, double exec_value) const;
    [[nodiscard]] double utility_of(std::size_t i, double exec_value) const;

    // Optimal makespan of the system without processor i: T(α(b_-i), b_-i).
    [[nodiscard]] double exclusion_makespan(std::size_t i) const;

 private:
    dlt::ProblemInstance instance_;    // kind, z, w = bids
    dlt::LoadAllocation alpha_;
    // The bid-rate finishing times T_k(α(b), b), split so a bonus row swaps
    // one of them in O(1): each one's bus term, and their running maxima
    // from the front (T_0..T_k) and from the back (T_k..T_{m-1}).
    std::vector<double> bus_;
    std::vector<double> prefix_max_;
    std::vector<double> suffix_max_;
    mutable std::vector<double> exclusion_cache_;  // lazily computed, NaN = missing
};

}  // namespace dlsbl::mech

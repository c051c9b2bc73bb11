// Closed-form optimal allocations: Algorithms 2.1 and 2.2 of the paper plus
// the classical BUS-LINEAR-CP algorithm from Bharadwaj et al. [3].
//
// All three follow the same pattern derived from the equal-finish-time
// optimality condition (Theorem 2.1):
//   * CP and NCP-FE (recurrence (7)):  α_{i+1} = k_i α_i with
//     k_i = w_i / (z + w_{i+1}), i = 1..m-1.
//   * NCP-NFE (recurrences (8)-(9)):   same k_i for i = 1..m-2, and the
//     front-end-less LO P_m satisfies α_m = (w_{m-1}/w_m) α_{m-1}.
// Normalizing by Σ α_i = 1 yields the allocation.
//
// The function template is instantiated with double (runtime path) and with
// util::Rational (exact verification path used by tests and the Theorem 2.1
// bench), which is why the generic implementation lives in this header.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::dlt {

// The ratio k_i with α_{i+1} = k_i α_i (0-based i = 0..m-2) in an m-processor
// system: w_i / (z + w_{i+1}) by recurrences (7)/(8), except the last NCP-NFE
// step, α_m w_m = α_{m-1} w_{m-1} (9).
template <typename Scalar>
Scalar chain_ratio(NetworkKind kind, std::size_t m, std::size_t i, const Scalar& w_i,
                   const Scalar& w_next, const Scalar& z) {
    if (kind == NetworkKind::kNcpNFE && i + 2 == m) return w_i / w_next;
    return w_i / (z + w_next);
}

// Generic closed form over any field-like scalar (double, util::Rational).
// Preconditions: w.size() >= 1, all w_i > 0, z >= 0.
template <typename Scalar>
std::vector<Scalar> optimal_allocation_generic(NetworkKind kind, std::span<const Scalar> w,
                                               const Scalar& z) {
    const std::size_t m = w.size();
    if (m == 0) throw std::invalid_argument("optimal_allocation: empty system");

    // Unnormalized multipliers c_i with c_1 = 1 and α_i = c_i / Σ c_j.
    std::vector<Scalar> c(m, Scalar{1});
    for (std::size_t i = 0; i + 1 < m; ++i) {
        c[i + 1] = c[i] * chain_ratio(kind, m, i, w[i], w[i + 1], z);
    }

    Scalar total{0};
    for (const Scalar& ci : c) total = total + ci;
    std::vector<Scalar> alpha(m);
    for (std::size_t i = 0; i < m; ++i) alpha[i] = c[i] / total;
    return alpha;
}

// Runtime (double) entry point; validates the instance.
LoadAllocation optimal_allocation(const ProblemInstance& instance);

}  // namespace dlsbl::dlt

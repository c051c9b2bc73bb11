// Finishing-time models T_i(α) for the three bus-network classes —
// equations (1), (2) and (3) of the paper.
//
//   CP      (eq 1): T_i = z Σ_{j<=i} α_j + α_i w_i              (Figure 1)
//   NCP-FE  (eq 2): T_1 = α_1 w_1,                              (Figure 2)
//                   T_i = z Σ_{2<=j<=i} α_j + α_i w_i, i >= 2
//   NCP-NFE (eq 3): T_i = z Σ_{j<=i} α_j + α_i w_i, i <= m-1,   (Figure 3)
//                   T_m = z Σ_{j<=m-1} α_j + α_m w_m
//
// The NCP-FE sum starts at j=2 because the load-originating P_1 never
// occupies the bus on its own behalf (its front end lets it compute from
// t=0 while transmitting to the others) — this matches Figure 2, where the
// communication row carries α_2 z, α_3 z, ..., α_m z.
//
// Allows mixed speed vectors: T_i can be evaluated with processor i running
// at its *execution* rate w̃_i while others run at bid rates, which is what
// the DLS-BL bonus term needs (mech/dls_bl.hpp).
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::dlt {

// Eqs (1)-(3) walked in processor order: the one definition of the bus
// term that finishing_times_generic, the DLS-BL bonus rows and
// leave_one_out_makespan all use, so their finishing times agree bit for
// bit. alpha_at(i) is called once per i, in increasing order (it may
// generate α_i on the fly); then visit(i, α_i, bus_i) gets P_i's bus term,
// and T_i = bus_i + α_i w_i for every processor. bus_i is the time the bus
// spends before P_i's data is delivered, z Σ α_j over the transfers up to
// and including P_i's; the load origin's own share never crosses the bus.
template <typename Scalar, typename AlphaAt, typename Visit>
void walk_bus(NetworkKind kind, std::size_t m, const Scalar& z, AlphaAt&& alpha_at,
              Visit&& visit) {
    Scalar comm{0};
    std::size_t i = 0;
    if (kind == NetworkKind::kNcpFE && m > 0) {
        // The LO P_1 computes from t = 0 on its front end. -0 is the exact
        // additive identity, so bus_1 + α_1 w_1 is α_1 w_1 bit for bit.
        visit(i, alpha_at(i), -Scalar{0});
        i = 1;
    }
    // NCP-NFE: the LO P_m has no front end and computes after every transfer.
    const std::size_t on_bus = kind == NetworkKind::kNcpNFE && m > 0 ? m - 1 : m;
    for (; i < on_bus; ++i) {
        const Scalar alpha_i = alpha_at(i);
        comm = comm + z * alpha_i;
        visit(i, alpha_i, comm);
    }
    if (i < m) visit(i, alpha_at(i), comm);
}

// All T_i for an arbitrary (not necessarily optimal) allocation.
template <typename Scalar>
std::vector<Scalar> finishing_times_generic(NetworkKind kind, std::span<const Scalar> alpha,
                                            std::span<const Scalar> w, const Scalar& z) {
    const std::size_t m = w.size();
    if (alpha.size() != m) throw std::invalid_argument("finishing_times: size mismatch");
    if (m == 0) throw std::invalid_argument("finishing_times: empty system");
    std::vector<Scalar> t(m);
    walk_bus(
        kind, m, z, [&](std::size_t i) -> const Scalar& { return alpha[i]; },
        [&](std::size_t i, const Scalar& alpha_i, const Scalar& bus) {
            t[i] = bus + alpha_i * w[i];
        });
    return t;
}

template <typename Scalar>
Scalar makespan_generic(NetworkKind kind, std::span<const Scalar> alpha,
                        std::span<const Scalar> w, const Scalar& z) {
    const auto t = finishing_times_generic<Scalar>(kind, alpha, w, z);
    Scalar best = t[0];
    for (const Scalar& ti : t) best = std::max(best, ti);
    return best;
}

// Double entry points.
std::vector<double> finishing_times(const ProblemInstance& instance,
                                    const LoadAllocation& alpha);
double makespan(const ProblemInstance& instance, const LoadAllocation& alpha);

// Convenience: makespan of the *optimal* allocation for the instance —
// T(α(b)) in the paper's payment formulas.
double optimal_makespan(const ProblemInstance& instance);

}  // namespace dlsbl::dlt

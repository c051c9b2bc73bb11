// Core types for Divisible Load Theory on bus networks (paper §2).
//
// A problem instance is (m processors with unit-processing times w_i, a bus
// with unit-communication time z, a network class). The load is normalized
// to 1 (eq 6) and an allocation is the fraction vector α with α_i >= 0 and
// Σ α_i = 1 (eqs 5-6).
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlsbl::dlt {

// The three system classes of §2 and Figures 1-3.
enum class NetworkKind {
    kCP,      // bus with a dedicated control processor P_0 (Figure 1)
    kNcpFE,   // no control processor; LO = P_1 has a front end (Figure 2)
    kNcpNFE,  // no control processor; LO = P_m has no front end (Figure 3)
};

const char* to_string(NetworkKind kind) noexcept;

// Index (0-based) of the load-originating processor for a given kind and
// processor count. For kCP the load originates at the control processor P_0,
// which is not part of the processor vector; this returns the first worker
// by convention (callers handling kCP specially should not rely on it).
std::size_t load_origin_index(NetworkKind kind, std::size_t processor_count);

struct ProblemInstance {
    NetworkKind kind = NetworkKind::kNcpFE;
    double z = 0.0;               // time to communicate a unit load over the bus
    std::vector<double> w;        // w[i]: time for P_{i+1} to process a unit load

    [[nodiscard]] std::size_t processor_count() const noexcept { return w.size(); }

    // Throws std::invalid_argument unless m >= 1, z >= 0, and all w_i > 0.
    void validate() const;
};

// The domain of a processing rate (a w_i, or a bid standing in for one):
// finite and > 0. NaN, zeros of either sign, negatives and infinities are
// outside it.
inline bool is_valid_rate(double w_i) noexcept { return w_i > 0.0 && std::isfinite(w_i); }

// The checks ProblemInstance::validate() makes on z and on each w_i, for
// code that walks a w vector itself (leave_one_out_makespan checks the
// rates as it reads them).
void validate_bus_time(double z);
inline void validate_rate(double w_i) {
    if (!is_valid_rate(w_i)) {
        throw std::invalid_argument("ProblemInstance: all w_i must be finite and > 0");
    }
}

using LoadAllocation = std::vector<double>;

// Σ α_i == 1 and α_i >= 0, within tolerance.
bool is_feasible_allocation(const LoadAllocation& alpha, double tolerance = 1e-9);

}  // namespace dlsbl::dlt

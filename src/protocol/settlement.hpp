// The two §4 decisions every party derives for itself: the allocation
// (Allocating Load) and the payments (Computing Payments).
//
// Each honest node computes both from the bids and the published meters,
// and the referee recomputes them in disputes, under churn and when it
// reallocates a dead processor's blocks. A payment vector that differs from
// the referee's by one bit is offense (iii), so every caller goes through
// these functions rather than restating them. Inputs and outputs are
// indexed by processor id (RunContext::find_index), full size, with
// excluded processors (churn bid-deadline exclusions) reading 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::protocol {

struct Allocation {
    std::vector<double> alpha;        // closed-form fraction α_j(b)
    std::vector<std::size_t> blocks;  // α_j·B rounded to whole blocks
};

// The closed form (Algorithm 2.1 or 2.2) over the bids of the processors
// not excluded, in id order, rounded to `block_count` blocks by largest
// remainder and scattered back to full size. An excluded processor's bid is
// not read. At least one processor must not be excluded.
Allocation allocate(dlt::NetworkKind kind, double z, std::size_t block_count,
                    std::span<const double> bids, std::span<const std::uint8_t> excluded);

// First block id of each processor: the LO ships contiguous ranges in id
// order, so processor i holds [Σ_{k<i} n_k, Σ_{k<=i} n_k).
std::vector<std::size_t> block_starts(std::span<const std::size_t> blocks);

struct SettlementInputs {
    dlt::NetworkKind kind = dlt::NetworkKind::kNcpFE;
    double z = 0.0;
    std::size_t block_count = 0;
    std::span<const double> bids;             // read for processors not excluded
    std::span<const std::uint8_t> excluded;   // 1 = excluded at the bid deadline
    std::span<const std::size_t> prescribed;  // allocate()'s blocks over the bids
    std::span<const std::size_t> realized;    // blocks run, after any reallocation
    std::span<const std::optional<double>> phi;  // finished meter readings
};

// DLS-BL payments Q over the processors not excluded, with
// w̃_j = φ_j / (realized_j / B), or the bid when P_j ran no block or its
// meter did not finish. A processor whose count a reallocation moved is
// paid pro rata, Q_j·(realized_j / prescribed_j), or Q_j + w̃_j·(realized_j
// / B) when it was prescribed no block. Excluded processors get 0, and so
// does everyone when fewer than two processors are left (the bonus compares
// against the system without P_j). The prescribed counts come from the
// caller, so settling costs no allocation solve beyond DLS-BL's own m + 1.
std::vector<double> settle_payments(const SettlementInputs& inputs);

}  // namespace dlsbl::protocol

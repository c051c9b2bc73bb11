// Configuration of one DLS-BL-NCP protocol execution.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/pki.hpp"
#include "dlt/types.hpp"
#include "protocol/churn.hpp"
#include "protocol/strategy.hpp"

namespace dlsbl::protocol {

// Fine policy (§4, Bidding): "Fine F must be large [enough] to dissuade
// cheating and to induce finking. Furthermore, F must be larger than the
// sum of the compensations, i.e., F >= Σ_j α_j w_j. All parties are aware
// of the magnitude of F."
//
// Two policies are provided:
//   * bid-derived (default): F = safety_factor × Σ_j α_j(b) b_j, posted the
//     moment bids become public. Bench E12 sweeps the factor to show the
//     paper's bound is tight. Caveat (documented in EXPERIMENTS.md): tying
//     F to bids opens an *off-equilibrium* channel — an agent can inflate
//     its bid to inflate the reward pool it collects when somebody else is
//     fined. On the equilibrium path (everyone complies, Theorem 5.1) no
//     fines occur and the channel pays nothing, so the paper's theorems are
//     unaffected; still, deployments should prefer the fixed policy below.
//   * fixed: the user posts a constant F with the job ("All parties are
//     aware of the magnitude of F"), chosen to exceed any plausible
//     compensation sum.
struct FinePolicy {
    double safety_factor = 1.5;
    std::optional<double> fixed_fine;  // overrides the bid-derived rule

    [[nodiscard]] double fine_for(double predicted_compensation_sum) const {
        if (fixed_fine.has_value()) return *fixed_fine;
        return safety_factor * predicted_compensation_sum;
    }
};

struct ProtocolConfig {
    dlt::NetworkKind kind = dlt::NetworkKind::kNcpFE;  // kCP is DLS-BL's domain, not ours
    double z = 0.2;                 // unit-load communication time
    std::vector<double> true_w;     // private per-unit processing times
    std::vector<Strategy> strategies;  // one per processor; empty = all honest

    FinePolicy fine_policy;
    // Number of equal-sized data blocks the user splits the unit load into
    // (§4 Initialization). More blocks = finer allocation granularity.
    std::size_t block_count = 240;
    // Latency of control messages (bids, accusations, ...). The paper's
    // timing model charges only load movement, so 0 by default.
    double control_latency = 0.0;
    // Bandwidth charge for control messages (seconds per byte on the shared
    // bus). 0 = the paper's model; > 0 makes the mechanism's Θ(m²) traffic
    // cost wall-clock time (overhead experiment E22).
    double control_seconds_per_byte = 0.0;
    crypto::SignatureAlgorithm signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    // MSS tree height: 2^h one-time keys per participant. A node with no
    // key left refuses to sign (counted), so validate() rejects 0: one key
    // cannot sign both a bid and a payment vector.
    unsigned mss_height = crypto::kDefaultMssHeight;
    // Signature-verification batch limit for the deferred message paths
    // (node bid intake, referee churn bids and payment vectors, bid-vector
    // validation). Non-blocking verifications queue up to this many
    // envelopes and flush through Pki::verify_many at the first point an
    // observable action could depend on a verdict; the flush replays
    // arrival order, so verdicts, fines, and artifacts are byte-identical
    // to eager verification at any value. <= 1 verifies eagerly.
    std::size_t verify_batch = 16;
    // Worker threads for MSS keygen (one-time leaves are independent; keys
    // are byte-identical at any job count). 0 and 1 run inline; a WOTS key
    // of height <= 4 is one batched pass and runs inline at any value.
    std::size_t crypto_keygen_jobs = 1;
    std::uint64_t seed = 1;
    // Fault-injection plan (crashes, restarts, loss/delay windows). The
    // default (empty) plan disables every churn code path, keeping static
    // runs bit-identical with or without this feature compiled in.
    ChurnPlan churn_plan;

    [[nodiscard]] std::size_t processor_count() const noexcept { return true_w.size(); }

    void validate() const;
};

}  // namespace dlsbl::protocol

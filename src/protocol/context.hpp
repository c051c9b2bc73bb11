// Shared run state wired between the runner, the processor nodes and the
// referee.
//
// The context also models the two "physical" trust anchors of the paper:
//   * the tamper-proof meter bank (§4 Processing Load) — execute_load() is
//     the only way a node can run its assignment, and it is the kernel, not
//     the agent, that writes the meter;
//   * the shared-bus witness — on a bus every station physically observes
//     every transfer, so the referee can consult the record of what the LO
//     actually shipped. ship_load() keeps each shipped batch (entries and
//     multiproof, about 40 bytes per block); shipped_to() verifies them the
//     first time a dispute reads them, so an honest run hashes nothing
//     here. This implements the paper's assumption that "the network and
//     communication protocols are tamper-proof" and lets the referee
//     resolve the α̃_i < α_i cases of §4.
//
// The context is part of the sans-I/O core: it reaches the outside world
// only through the protocol::Clock / protocol::Transport pair a driver
// provides (see protocol/endpoint.hpp) — never through a transport directly.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/pki.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "protocol/blocks.hpp"
#include "protocol/config.hpp"
#include "protocol/endpoint.hpp"
#include "protocol/ledger.hpp"
#include "protocol/messages.hpp"
#include "protocol/meter.hpp"
#include "protocol/outcome.hpp"

namespace dlsbl::protocol {

class RefereeCore;

struct ShippedRecord {
    std::size_t valid_blocks = 0;    // blocks of authentic batches seen on the bus
    std::size_t invalid_blocks = 0;  // blocks of batches failing the integrity check
};

class RunContext {
 public:
    RunContext(Clock& clock, Transport& transport, ProtocolConfig config);

    // --- identity / configuration -----------------------------------------
    [[nodiscard]] const ProtocolConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t processor_count() const noexcept {
        return config_.true_w.size();
    }
    [[nodiscard]] const std::vector<std::string>& processor_names() const noexcept {
        return names_;
    }
    [[nodiscard]] const std::string& referee_name() const noexcept { return referee_name_; }
    [[nodiscard]] const std::string& load_origin() const noexcept { return lo_name_; }
    [[nodiscard]] std::uint64_t job_id() const noexcept { return job_id_; }
    // Dense processor id of `name` in O(1): "P1" -> 0, ..., "Pm" -> m-1, and
    // nullopt for the referee, the user or any other name. The cores key
    // their per-processor tables on it.
    [[nodiscard]] std::optional<std::size_t> find_index(std::string_view name) const noexcept;
    // find_index for a name that must be a processor (throws otherwise).
    [[nodiscard]] std::size_t index_of(const std::string& name) const;

    // --- subsystems ---------------------------------------------------------
    [[nodiscard]] Clock& clock() noexcept { return clock_; }
    [[nodiscard]] Transport& transport() noexcept { return transport_; }
    [[nodiscard]] crypto::Pki& pki() noexcept { return pki_; }
    [[nodiscard]] const DataSet& dataset() const noexcept { return dataset_; }
    [[nodiscard]] Ledger& ledger() noexcept { return ledger_; }
    [[nodiscard]] MeterBank& meters() noexcept { return meters_; }
    // Per-run metrics: referee counters plus the post-run network-accounting
    // export land here, isolated from other runs in the same process.
    [[nodiscard]] obs::MetricsRegistry& metrics_registry() noexcept {
        return metrics_registry_;
    }

    // --- causal spans (obs/span.hpp) -----------------------------------------
    // One span tree per run: run -> phase -> per-processor message / verify /
    // compute / fine spans. The run span opens with the context; the runner
    // closes it (close_run_span) once the event loop quiesces.
    [[nodiscard]] obs::SpanBook& spans() noexcept { return spans_; }
    [[nodiscard]] const obs::SpanContext& run_span() const noexcept { return run_span_; }
    [[nodiscard]] const obs::SpanContext& phase_span() const noexcept {
        return phase_span_;
    }
    void close_run_span();

    // --- phase & termination -------------------------------------------------
    [[nodiscard]] Phase phase() const noexcept { return phase_; }
    void set_phase(Phase phase);
    [[nodiscard]] bool terminated() const noexcept { return terminated_; }
    void mark_terminated(const std::string& reason);
    [[nodiscard]] const std::string& termination_reason() const noexcept {
        return termination_reason_;
    }

    // --- fine F (posted once bids are public; §4 Bidding) --------------------
    // First caller wins; computed as fine_policy.fine_for(Σ α_j(b) b_j).
    void post_fine(double predicted_compensation_sum);
    [[nodiscard]] bool fine_posted() const noexcept { return fine_posted_; }
    [[nodiscard]] double fine_amount() const noexcept { return fine_amount_; }

    // --- tamper-proof load path ----------------------------------------------
    // The LO ships blocks to `to` through the one-port bus; the bus witness
    // keeps the batch. `span_id` (optional) stamps the sender's causal span
    // onto the transfer.
    void ship_load(const std::string& from, const std::string& to, LoadBatch batch,
                   std::uint64_t span_id = 0);
    // The witness's counts for `to` (nullptr if nothing was shipped there),
    // after verifying every batch not yet verified.
    [[nodiscard]] const ShippedRecord* shipped_to(const std::string& to);

    // Runs `block_count` blocks at per-unit time `rate` on behalf of `who`;
    // rate is clamped to >= the processor's true w (you cannot compute
    // faster than your hardware). Fires `done` when execution completes and
    // the meter has been stopped. The compute interval gets its own span,
    // parented on `parent_span` (0 = the current phase span).
    void execute_load(const std::string& who, std::size_t block_count, double rate,
                      std::function<void()> done, std::uint64_t parent_span = 0);
    [[nodiscard]] double clamp_rate(const std::string& who, double requested) const;

    // Called by execute_load completion; when every expected processor has
    // finished, notifies the referee (meter collection, §4).
    void set_referee(RefereeCore& referee) { referee_ = &referee; }
    void set_expected_workers(std::size_t count) { expected_workers_ = count; }

    // --- churn (DESIGN.md "Churn model") -------------------------------------
    [[nodiscard]] bool churn_enabled() const noexcept {
        return config_.churn_plan.enabled();
    }
    // The referee adjusts the quorum when it excludes dead bidders (-k) or
    // reallocates blocks onto survivors (+extras).
    void adjust_expected_workers(std::ptrdiff_t delta);
    [[nodiscard]] std::size_t expected_workers() const noexcept {
        return expected_workers_;
    }
    [[nodiscard]] std::size_t finished_workers() const noexcept {
        return finished_workers_;
    }

    [[nodiscard]] double last_compute_end() const noexcept { return last_compute_end_; }

 private:
    Clock& clock_;
    Transport& transport_;
    ProtocolConfig config_;
    crypto::Pki pki_;
    DataSet dataset_;
    Ledger ledger_;
    MeterBank meters_;
    obs::MetricsRegistry metrics_registry_;
    obs::SpanBook spans_;
    obs::SpanContext run_span_;
    obs::SpanContext phase_span_;

    std::vector<std::string> names_;
    std::string referee_name_ = "referee";
    std::string user_name_ = "user";
    std::string lo_name_;
    std::uint64_t job_id_;

    Phase phase_ = Phase::kInit;
    bool terminated_ = false;
    std::string termination_reason_;
    bool fine_posted_ = false;
    double fine_amount_ = 0.0;

    struct Shipments {
        std::vector<BlockBatch> unverified;
        ShippedRecord record;
    };
    std::map<std::string, Shipments> shipped_;
    RefereeCore* referee_ = nullptr;
    std::size_t expected_workers_ = 0;
    std::size_t finished_workers_ = 0;
    double last_compute_end_ = 0.0;

 public:
    [[nodiscard]] const std::string& user_name() const noexcept { return user_name_; }
};

}  // namespace dlsbl::protocol

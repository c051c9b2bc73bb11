// A strategic processor participating in DLS-BL-NCP.
//
// Implements the processor side of all five protocol stages (§4):
// bidding (all-to-all signed broadcast), local allocation computation,
// load shipping / receipt with integrity checks, metered processing, and
// payment-vector computation. Every prescribed step has a deviation hook
// driven by the node's Strategy (see protocol/strategy.hpp); the honest
// strategy follows the mechanism exactly.
//
// NodeCore is a sans-I/O state machine: it reaches the world only through
// the context's Clock/Transport pair and receives input as WireMessages —
// no transport types appear here, so any driver can host it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "protocol/context.hpp"
#include "protocol/dispatch.hpp"
#include "protocol/endpoint.hpp"
#include "protocol/settlement.hpp"
#include "protocol/verify_queue.hpp"
#include "protocol/wire.hpp"

namespace dlsbl::protocol {

// Metric counting signatures a node refused because its signer had no
// one-time key left. Created at the first refusal, so runs that never
// refuse (every kFast run, every zoo strategy at the default height) do not
// show it.
inline constexpr const char* kSignaturesRefusedMetric = "dlsbl_signatures_refused_total";

class NodeCore final : public Endpoint {
 public:
    NodeCore(RunContext& context, std::size_t index,
             std::unique_ptr<crypto::Signer> signer, Strategy strategy);

    void on_start() override;
    void on_message(const WireMessage& message) override;

    // --- inspection (used by the runner's outcome extraction) ---------------
    [[nodiscard]] const Strategy& strategy() const noexcept { return strategy_; }
    [[nodiscard]] double bid_value() const noexcept { return bid_; }
    [[nodiscard]] double exec_rate() const noexcept { return exec_rate_; }
    [[nodiscard]] std::size_t blocks_assigned() const noexcept { return blocks_assigned_; }
    [[nodiscard]] std::size_t blocks_received() const noexcept { return valid_received_; }
    [[nodiscard]] const std::vector<double>& allocation() const noexcept {
        return allocation_.alpha;
    }
    [[nodiscard]] const std::vector<double>& payment_vector() const noexcept {
        return payment_vector_;
    }
    [[nodiscard]] bool settled() const noexcept { return settled_; }
    // Blocks received via a churn reallocation (0 outside churn mode).
    [[nodiscard]] std::size_t blocks_extra() const noexcept { return extra_received_; }
    // Excluded at the churn bid deadline (a crashed-then-restarted bidder).
    [[nodiscard]] bool excluded_self() const noexcept { return excluded_self_; }
    [[nodiscard]] std::size_t signatures_left() const { return signer_->signatures_left(); }

 private:
    void register_handlers();
    [[nodiscard]] bool is_load_origin() const;
    // S_i(payload), or nullopt when the signer has no one-time key left: the
    // refusal is counted and the caller sends nothing in its place.
    [[nodiscard]] std::optional<crypto::SignedMessage> sign(util::Bytes payload);
    void broadcast_bid(double value);
    void handle_bid(const WireMessage& message);
    // Post-verification bid intake (record / dedup / accuse / finish) —
    // replayed in arrival order by a queue flush, at every arrival when
    // verification is eager; every batch limit gives the same bytes (see
    // verify_queue.hpp).
    void apply_bid(std::size_t sender, const wire::SignedFrame& envelope, bool verified);
    void record_bid(std::size_t sender, const wire::SignedFrame& envelope, double value);
    // Conservative structural test: could recording the pending envelopes
    // complete the active bid set? (Completion is the only verdict-
    // dependent observable that isn't a conflict.) O(1): every active
    // processor is recorded or queued.
    [[nodiscard]] bool bid_set_possibly_complete() const noexcept {
        return bidding_finished_ || active_recorded_ + active_queued_ == active_count_;
    }
    void flush_pending_bids();
    void maybe_finish_bidding();
    void ship_loads();
    void handle_load_delivery(const WireMessage& message);
    // Verifies one delivered batch; an authentic batch is held as complaint
    // evidence. Returns its entry count if authentic, else 0.
    std::size_t accept_batch(const wire::BlockBatchView& view);
    // The LO's batch over `ids` (in order); lo_corrupt_blocks flips every
    // payload digest.
    [[nodiscard]] LoadBatch load_batch(std::span<const std::uint64_t> ids,
                                       bool corrupt) const;
    void begin_processing(std::size_t blocks);
    void handle_meter_broadcast(const WireMessage& message);
    void handle_exclude(const WireMessage& message);
    void handle_realloc(const WireMessage& message);
    void handle_bid_vector_request();
    void handle_mediate_request(const WireMessage& message);
    void file_complaint(AllocComplaintKind kind, std::size_t expected, std::size_t received,
                        std::vector<BlockBatch> held);
    void maybe_false_accuse(const wire::SignedFrame& envelope);

    RunContext& ctx_;
    std::size_t index_;
    double true_w_;
    Strategy strategy_;
    std::unique_ptr<crypto::Signer> signer_;
    MessageDispatcher dispatch_;

    double bid_ = 0.0;
    double exec_rate_ = 0.0;

    // Bid tables indexed by processor id (RunContext::find_index). The
    // first valid signed bid per sender, held by its frame (the one every
    // recipient shares; the node's own is the frame it broadcast), and its
    // value; a second, different valid bid from the same sender is offense
    // (i) evidence.
    std::vector<std::optional<wire::SignedFrame>> first_bids_;
    std::vector<double> bid_values_;
    // Referee's bid-deadline exclusions (churn mode), same ids.
    std::vector<std::uint8_t> excluded_;
    // The round closes when every active (non-excluded) processor's bid is
    // recorded; these counters make that test, and the deferred-intake
    // one above, O(1) per arrival.
    std::size_t active_count_ = 0;     // processors not excluded
    std::size_t active_recorded_ = 0;  // ... with a recorded bid
    std::size_t active_queued_ = 0;    // ... with none recorded but one queued
    // Arrival-order intake queue for deferred bid verification
    // (config.verify_batch envelopes per Pki::verify_many flush).
    VerifyQueue pending_bids_;
    bool accused_double_bid_ = false;
    bool false_accused_ = false;
    bool bidding_finished_ = false;

    Allocation allocation_;                   // computed from the bids, by id
    std::size_t blocks_assigned_ = 0;
    std::size_t valid_received_ = 0;
    std::vector<BlockBatch> held_batches_;    // authentic batches received
    bool processing_started_ = false;
    bool complaint_filed_ = false;
    // Causal parent for the compute span: the verify span of the delivery
    // that triggered processing (0 = parent on the phase span instead).
    std::uint64_t compute_parent_span_ = 0;

    std::vector<double> payment_vector_;
    bool settled_ = false;

    // --- churn state (untouched outside churn mode) --------------------------
    bool excluded_self_ = false;
    std::size_t extra_pending_ = 0;      // reallocated blocks awaiting delivery
    std::size_t extra_received_ = 0;
    // The referee's kRealloc, by processor id: the dead processor, the
    // blocks it finished, and the extras granted to survivors in message
    // order.
    std::optional<std::size_t> realloc_dead_;
    std::uint64_t realloc_dead_final_ = 0;
    std::vector<std::pair<std::size_t, std::uint64_t>> realloc_extras_;
    bool payment_submitted_ = false;
};

}  // namespace dlsbl::protocol

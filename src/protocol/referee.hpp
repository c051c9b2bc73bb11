// The referee (§4): a minimally-trusted third party that stays passive
// until a processor signals presumed cheating, verifies the evidence,
// levies fines F, and redistributes the collected sum.
//
// Unlike DLS-BL's control processor, the referee computes no allocations
// and holds no processor parameters in conflict-free runs; everything it
// learns during a dispute arrives as signed evidence that it verifies
// against the PKI. Its only unconditional roles are relaying the
// tamper-proof meter readings (φ_1..φ_m) and forwarding the agreed payment
// vector to the payment infrastructure.
//
// RefereeCore is a sans-I/O state machine: like NodeCore it touches the
// world only through the context's Clock/Transport pair.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
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

class RefereeCore final : public Endpoint {
 public:
    explicit RefereeCore(RunContext& context);

    void on_message(const WireMessage& message) override;

    // Invoked by the context when every processor's meter has stopped.
    void on_all_meters_done();

    // Invoked by the context once the fine F is posted: double-bid
    // accusations that arrived before it are judged in a zero-delay event.
    void on_fine_posted();

    // Invoked by the context for each meter that stops after a terminating
    // verdict: the §4 termination rule pays commenced processors α_i w̃_i,
    // which is exactly the metered time φ_i — known only once they finish.
    void on_meter_stopped(const std::string& processor);

    // Invoked by the context when a crash interrupts an execution: the
    // tamper-proof meter stopped with `blocks_done` of `exec_blocks` proved.
    // The referee adjudicates after the plan's detection timeout and
    // reallocates the undone blocks over the survivors (churn mode only).
    void on_meter_lost(const std::string& processor, std::size_t exec_blocks,
                       std::size_t blocks_done);

    // --- inspection ----------------------------------------------------------
    [[nodiscard]] const std::map<std::string, double>& fines() const noexcept {
        return fines_;
    }
    [[nodiscard]] const std::map<std::string, double>& rewards() const noexcept {
        return rewards_;
    }
    [[nodiscard]] const std::map<std::string, double>& compensations() const noexcept {
        return compensations_;
    }
    [[nodiscard]] bool settled() const noexcept { return settled_; }
    [[nodiscard]] const std::vector<double>& settled_payments() const noexcept {
        return settled_payments_;
    }
    [[nodiscard]] double user_paid() const noexcept { return user_paid_; }
    // Bids the referee ended up learning (empty unless a dispute forced
    // disclosure) — lets tests assert referee passivity in honest runs.
    [[nodiscard]] const std::map<std::string, double>& learned_bids() const noexcept {
        return verified_bids_;
    }
    // Churn rulings (empty/zero outside churn mode).
    [[nodiscard]] const std::set<std::string>& churn_excluded() const noexcept {
        return churn_excluded_;
    }
    [[nodiscard]] const std::string& churn_dead() const noexcept { return churn_dead_; }
    [[nodiscard]] std::size_t churn_realloc_blocks() const noexcept {
        return churn_realloc_blocks_;
    }

 private:
    enum class DisputeStage {
        kNone,
        kAllocAwaitingBidVectors,
        kAllocAwaitingMediation,
        kPaymentAwaitingBidVectors,
    };

    void register_handlers();
    void handle_double_bid_accusation(const WireMessage& message);
    void handle_alloc_complaint(const WireMessage& message);
    void handle_bid_vector_response(const WireMessage& message);
    void handle_mediate_blocks(const WireMessage& message);
    void handle_mediate_refuse(const WireMessage& message);
    void handle_payment_vector(const WireMessage& message);

    // Deferred-verification plumbing (see verify_queue.hpp): non-blocking
    // arrivals (churn bids, payment vectors) park unverified and flush in
    // arrival order through Pki::verify_many before any observable action.
    void flush_deferred();
    void apply_churn_bid(std::size_t sender, const wire::SignedFrame& envelope,
                         bool verified);
    void apply_payment(std::size_t sender, const wire::SignedFrame& envelope,
                       bool verified);
    // Conservative flush triggers, O(1): could the queued envelopes complete
    // the bidder set / the payment quorum? A processor counts once whether
    // it is recorded, queued, or both.
    [[nodiscard]] bool churn_bid_set_possibly_complete() const noexcept {
        return churn_bids_complete_ ||
               churn_bids_.size() + queued_unrecorded_bidders_ == ctx_.processor_count();
    }
    [[nodiscard]] std::size_t payment_quorum() const noexcept;
    [[nodiscard]] bool payment_quorum_possible() const noexcept {
        return payment_submissions_.size() + queued_unsubmitted_ >= payment_quorum();
    }

    // Validates collected bid vectors: flags entries with bad signatures
    // (offense iv) and double-signed bids; fills verified_bids_ on success.
    // Returns deviants found (empty = clean).
    std::set<std::string> validate_bid_vectors();
    // Does the vector hold a bid of every processor — under churn, of every
    // processor the bid deadline did not exclude?
    [[nodiscard]] bool covers_bidders(const BidVectorBody& body) const;
    // The allocation and the settlement (settlement.hpp) over `bids`: a
    // bid for every processor not excluded at the churn bid deadline.
    // Settling reads the finished meters.
    [[nodiscard]] Allocation allocation_over(const std::map<std::string, double>& bids) const;
    [[nodiscard]] std::vector<double> settlement_over(
        const std::map<std::string, double>& bids, std::span<const std::size_t> prescribed,
        std::span<const std::size_t> realized) const;
    // churn_excluded_ and `bids` by processor id (an excluded id reads 0).
    [[nodiscard]] std::vector<std::uint8_t> excluded_ids() const;
    [[nodiscard]] std::vector<double> bids_by_id(const std::map<std::string, double>& bids) const;
    void adjudicate_alloc_complaint();
    void evaluate_payments();
    void recompute_and_settle();
    void settle(const std::vector<double>& payments);

    // Levies F on each deviant, distributes per the phase's rule, and (for
    // pre-payment phases) terminates the protocol.
    void issue_verdict(const std::set<std::string>& deviants, const std::string& reason,
                       bool terminate);

    // Observability: dispute lifecycle + adjudicated-accusation counters on
    // the run's metrics registry (obs::MetricsRegistry).
    void count_dispute_opened(const char* kind);
    void count_dispute_resolved();
    void count_accusation(const char* type, bool substantiated);
    // Pays α_i w̃_i (= φ_i) to the commenced non-deviants, splits the
    // remaining pool, once every commenced meter has stopped.
    void finalize_termination_payouts();

    // --- churn machinery (DESIGN.md "Churn model"; only when the run's
    // --- churn plan is non-empty) --------------------------------------------
    // Under churn the referee drops its §4 passivity for bids: a crashed
    // bidder can only be detected by someone who records who actually bid.
    void handle_churn_bid(const WireMessage& message);
    // Fixes the active bidder set, computes the prescribed block counts and
    // arms the processing watchdog.
    void complete_churn_bidding();
    void check_bids();        // bid_timeout watchdog -> exclusions
    void check_processing();  // processing_grace watchdog -> unstarted assignees
    // Redistributes the dead processor's undone blocks over the survivors
    // via the NCP-NFE closed form; broadcasts kRealloc. One per run.
    void do_reallocate(const std::string& dead, std::size_t exec_blocks,
                       std::size_t blocks_done);
    // Meter broadcast gate: waits for every expected execution AND for all
    // pending crash adjudications before publishing the φ vector.
    void maybe_finish_meters();
    void churn_evaluate_payments();  // canonical settlement + mismatch fines
    // Unrecoverable churn (dead LO, < 2 active bidders): stop the round with
    // no fines and no payouts — death is not an offense.
    void churn_terminate(const std::string& reason);
    [[nodiscard]] std::size_t churn_active_count() const noexcept {
        return ctx_.processor_count() - churn_excluded_.size();
    }

    RunContext& ctx_;
    MessageDispatcher dispatch_;
    // Arrival-order intake queues for deferred signature verification.
    VerifyQueue pending_churn_bids_;
    VerifyQueue pending_payments_;

    bool verdict_issued_ = false;
    std::map<std::string, double> fines_;
    std::map<std::string, double> rewards_;
    std::map<std::string, double> compensations_;

    DisputeStage stage_ = DisputeStage::kNone;
    const char* open_dispute_kind_ = nullptr;  // non-null while a dispute is open
    // Causal span covering the open dispute (opened with the dispute
    // counter, closed on resolution); invalid while no dispute is open.
    obs::SpanContext dispute_span_;
    std::optional<AllocComplaintBody> open_complaint_;
    // Double-bid accusations that arrived before F was posted, at most one
    // per accuser (parked_accusers_, by processor id), in arrival order.
    std::vector<WireMessage> parked_accusations_;
    std::vector<std::uint8_t> parked_accusers_;
    std::map<std::string, BidVectorBody> bid_vector_responses_;
    std::set<std::string> bid_vector_expected_;
    std::map<std::string, double> verified_bids_;

    // payment phase
    bool meters_broadcast_ = false;
    // Every authentic submission per submitter, held by its frame.
    std::map<std::string, std::vector<wire::SignedFrame>> payment_submissions_;
    std::map<std::string, std::vector<double>> payment_values_;
    // Submitters by processor id (the keys of payment_submissions_), and the
    // queued ones not among them: the covered-submitter count.
    std::vector<std::uint8_t> submitted_;
    std::size_t queued_unsubmitted_ = 0;
    bool payment_evaluation_scheduled_ = false;
    bool settled_ = false;
    std::vector<double> settled_payments_;
    double user_paid_ = 0.0;

    // Churn state (untouched outside churn mode).
    std::map<std::string, double> churn_bids_;      // first valid bid per sender
    std::size_t queued_unrecorded_bidders_ = 0;     // queued, not in churn_bids_
    std::set<std::string> churn_excluded_;          // missing at the bid deadline
    std::vector<std::size_t> churn_prescribed_;     // allocated blocks, by id
    std::vector<std::size_t> churn_counts_;         // ... after reallocation
    bool churn_bids_complete_ = false;
    bool churn_watchdog_scheduled_ = false;
    std::size_t pending_adjudications_ = 0;
    bool realloc_done_ = false;
    std::string churn_dead_;
    std::uint64_t churn_dead_final_ = 0;
    std::size_t churn_realloc_blocks_ = 0;
    util::Frame churn_meter_frame_;                 // kept for retransmission
    bool churn_settle_scheduled_ = false;

    // Terminating-verdict payout state.
    struct PendingTermination {
        std::set<std::string> deviants;
        double pool = 0.0;
        std::vector<std::string> commenced;  // non-deviants owed φ_i
        std::set<std::string> awaiting;      // commenced meters still running
    };
    std::optional<PendingTermination> pending_termination_;
};

}  // namespace dlsbl::protocol

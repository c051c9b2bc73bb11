#include "protocol/referee.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "obs/event.hpp"
#include "obs/profiler.hpp"
#include "util/logging.hpp"

namespace dlsbl::protocol {

// Referee metric names (per-run registry; tests assert against these).
namespace {
constexpr const char* kFinesMetric = "dlsbl_referee_fines_total";
constexpr const char* kFinesAmountMetric = "dlsbl_referee_fines_amount";
constexpr const char* kDisputesOpenedMetric = "dlsbl_referee_disputes_opened_total";
constexpr const char* kDisputesResolvedMetric = "dlsbl_referee_disputes_resolved_total";
constexpr const char* kAccusationsMetric = "dlsbl_referee_accusations_total";
constexpr const char* kVerifyCacheMetric = "dlsbl_referee_verify_cache_total";

// Did one submitter send two different payment vectors (offense iii)?
bool contradicts(const std::vector<wire::SignedFrame>& submissions) {
    return std::any_of(submissions.begin(), submissions.end(), [&](const auto& s) {
        return !std::ranges::equal(s.view().payload, submissions.front().view().payload);
    });
}
}  // namespace

RefereeCore::RefereeCore(RunContext& context)
    : Endpoint(context.referee_name()),
      ctx_(context),
      pending_churn_bids_(context.config().verify_batch, context.processor_names()),
      pending_payments_(context.config().verify_batch, context.processor_names()),
      parked_accusers_(context.processor_count(), 0),
      submitted_(context.processor_count(), 0) {
    register_handlers();
    if (ctx_.churn_enabled()) {
        ctx_.clock().call_at(ctx_.config().churn_plan.policy.bid_timeout,
                             [this] { check_bids(); });
    }
}

void RefereeCore::register_handlers() {
    // On a shared bus the referee physically receives bid broadcasts, but it
    // stays passive: bids are neither stored nor used unless a dispute later
    // delivers them as signed evidence. Under churn that passivity is
    // untenable — only a party that records who actually bid can exclude a
    // crashed bidder — so the plan being non-empty switches the handler on.
    if (ctx_.churn_enabled()) {
        dispatch_.on(MsgType::kBid,
                     [this](const WireMessage& m) { handle_churn_bid(m); });
    } else {
        dispatch_.ignore(MsgType::kBid);
    }
    dispatch_.on(MsgType::kAccuseDoubleBid,
                 [this](const WireMessage& m) { handle_double_bid_accusation(m); });
    dispatch_.on(MsgType::kAllocComplaint,
                 [this](const WireMessage& m) { handle_alloc_complaint(m); });
    dispatch_.on(MsgType::kBidVectorResponse,
                 [this](const WireMessage& m) { handle_bid_vector_response(m); });
    dispatch_.on(MsgType::kMediateBlocks,
                 [this](const WireMessage& m) { handle_mediate_blocks(m); });
    dispatch_.on(MsgType::kMediateRefuse,
                 [this](const WireMessage& m) { handle_mediate_refuse(m); });
    dispatch_.on(MsgType::kPaymentVector,
                 [this](const WireMessage& m) { handle_payment_vector(m); });
    // Processor-bound message kinds: known, deliberately ignored.
    dispatch_.ignore(MsgType::kLoadDelivery);
    dispatch_.ignore(MsgType::kBidVectorRequest);
    dispatch_.ignore(MsgType::kMediateRequest);
    dispatch_.ignore(MsgType::kMeterBroadcast);
    dispatch_.ignore(MsgType::kTerminate);
    dispatch_.ignore(MsgType::kSettled);
    dispatch_.ignore(MsgType::kExclude);
    dispatch_.ignore(MsgType::kRealloc);
}

void RefereeCore::count_dispute_opened(const char* kind) {
    open_dispute_kind_ = kind;
    ctx_.metrics_registry()
        .counter(kDisputesOpenedMetric, {{"kind", kind}})
        .inc();
    // Disputes can straddle phase changes, so the span parents on the run.
    dispute_span_ = ctx_.spans().open(std::string("dispute:") + kind, name(),
                                      ctx_.clock().now(),
                                      ctx_.run_span().span_id);
}

void RefereeCore::count_dispute_resolved() {
    if (open_dispute_kind_ == nullptr) return;
    ctx_.metrics_registry()
        .counter(kDisputesResolvedMetric, {{"kind", open_dispute_kind_}})
        .inc();
    open_dispute_kind_ = nullptr;
    ctx_.spans().close(dispute_span_, ctx_.clock().now());
    dispute_span_ = obs::SpanContext{};
}

void RefereeCore::count_accusation(const char* type, bool substantiated) {
    ctx_.metrics_registry()
        .counter(kAccusationsMetric,
                 {{"type", type},
                  {"verdict", substantiated ? "substantiated" : "unfounded"}})
        .inc();
}

void RefereeCore::on_message(const WireMessage& message) {
    if (ctx_.terminated()) return;
    dispatch_.dispatch(*this, message, ctx_.metrics_registry());
}

// ---- offense (i): inconsistent bids ---------------------------------------

void RefereeCore::handle_double_bid_accusation(const WireMessage& message) {
    flush_deferred();  // verdict bytes must not depend on queued envelopes
    if (verdict_issued_) return;
    if (!ctx_.fine_posted()) {
        // Every verdict levies F, which is posted once bids are public; under
        // churn that waits for the bid deadline. Park the accusation, one
        // per accuser so a flood parks at most m, until then.
        const auto accuser = ctx_.find_index(message.from);
        if (accuser && parked_accusers_[*accuser] == 0) {
            parked_accusers_[*accuser] = 1;
            parked_accusations_.push_back(message);
        }
        return;
    }
    const auto evidence = wire::DoubleBidEvidenceView::parse(message.payload());
    if (!evidence) return;
    const std::string& accuser = message.from;
    const std::string accused{evidence->accused};

    // Substantiated iff: both messages carry valid signatures of `accused`,
    // both parse as bids of `accused`, and the payloads differ.
    const bool both_signed = evidence->first.signer == accused &&
                             evidence->second.signer == accused &&
                             evidence->first.verify(ctx_.pki()) &&
                             evidence->second.verify(ctx_.pki());
    const auto payloads_equal = [&] {
        return evidence->first.payload.size() == evidence->second.payload.size() &&
               std::equal(evidence->first.payload.begin(), evidence->first.payload.end(),
                          evidence->second.payload.begin());
    };
    bool substantiated = false;
    if (both_signed && !payloads_equal()) {
        const auto first = wire::BidView::parse(evidence->first.payload);
        const auto second = wire::BidView::parse(evidence->second.payload);
        substantiated = first && second && first->processor == accused &&
                        second->processor == accused;
    }
    count_accusation("double-bid", substantiated);
    if (substantiated) {
        issue_verdict({accused}, "double-bid by " + accused, /*terminate=*/true);
    } else {
        // "If the concerns are unfounded, P_j is penalized F." (§4 Bidding)
        issue_verdict({accuser}, "unfounded double-bid accusation by " + accuser,
                      /*terminate=*/true);
    }
}

void RefereeCore::on_fine_posted() {
    if (parked_accusations_.empty()) return;
    ctx_.clock().call_after(0.0, [this] {
        if (ctx_.terminated()) return;
        const std::vector<WireMessage> parked = std::move(parked_accusations_);
        parked_accusations_.clear();
        for (const auto& message : parked) handle_double_bid_accusation(message);
    });
}

// ---- offense (ii): incorrect load assignments ------------------------------

void RefereeCore::handle_alloc_complaint(const WireMessage& message) {
    flush_deferred();  // dispute handling emits observable requests
    if (verdict_issued_ || stage_ != DisputeStage::kNone) return;
    // Cold dispute path: the complaint's held batches must outlive this
    // frame (stored in open_complaint_), so the owning legacy decode is
    // the right tool here.  DLSBL_LINT_ALLOW(protocol-codec)
    auto complaint = AllocComplaintBody::deserialize(message.payload());
    if (!complaint || complaint->complainant != message.from) return;
    if (message.from == ctx_.load_origin()) return;  // the LO cannot complain about itself

    open_complaint_ = std::move(*complaint);
    stage_ = DisputeStage::kAllocAwaitingBidVectors;
    count_dispute_opened("allocation");
    bid_vector_responses_.clear();
    bid_vector_expected_ = {ctx_.load_origin(), open_complaint_->complainant};
    // "Processors P_lo and P_i submit their vector of bids" (§4).
    for (const auto& target : bid_vector_expected_) {
        ctx_.transport().unicast(name(), target, to_wire(MsgType::kBidVectorRequest), {});
    }
}

void RefereeCore::handle_bid_vector_response(const WireMessage& message) {
    flush_deferred();  // validation below may issue verdicts
    if (stage_ != DisputeStage::kAllocAwaitingBidVectors &&
        stage_ != DisputeStage::kPaymentAwaitingBidVectors) {
        return;
    }
    // Cold dispute path: responses are stored whole until both arrive, so
    // the owning legacy decode applies.  DLSBL_LINT_ALLOW(protocol-codec)
    auto body = BidVectorBody::deserialize(message.payload());
    if (!body || body->submitter != message.from) return;
    if (!bid_vector_expected_.contains(message.from)) return;
    bid_vector_responses_[message.from] = std::move(*body);
    if (bid_vector_responses_.size() != bid_vector_expected_.size()) return;

    const std::set<std::string> deviants = validate_bid_vectors();
    if (!deviants.empty()) {
        std::string who;
        for (const auto& d : deviants) who += (who.empty() ? "" : ",") + d;
        issue_verdict(deviants, "manipulated bid vector(s): " + who, /*terminate=*/true);
        return;
    }
    if (stage_ == DisputeStage::kAllocAwaitingBidVectors) {
        adjudicate_alloc_complaint();
    } else {
        recompute_and_settle();
    }
}

std::set<std::string> RefereeCore::validate_bid_vectors() {
    const obs::SpanContext verify_span = ctx_.spans().open(
        "verify:bid_vectors", name(), ctx_.clock().now(),
        dispute_span_.valid() ? dispute_span_.span_id : ctx_.phase_span().span_id);
    std::set<std::string> deviants;
    // The same signed bid appears in every submitter's vector, so most of
    // the entry.verify() calls below are repeats — the Pki verification
    // cache absorbs them. Record hit/miss deltas for observability.
    const crypto::Pki::CacheStats cache_before = ctx_.pki().verify_cache_stats();
    // Pass 1: structural screen (parse + binding checks) in the sequential
    // loop's entry order; entries that pass go to signature verification.
    // The same signed bid appears in every submitter's vector, so the whole
    // screen typically holds m distinct signatures submitted m times —
    // verify_many amortizes the distinct ones through the batch engine and
    // replays the repeats as cache hits, byte-identical to per-entry
    // verify() in the same order.
    struct ScreenedEntry {
        const std::string* submitter;
        const crypto::SignedMessage* entry;
        wire::BidView bid;  // views into entry->payload (stable storage)
    };
    std::vector<ScreenedEntry> screened;
    for (const auto& [submitter, body] : bid_vector_responses_) {
        for (const auto& entry : body.bids) {
            const auto bid = wire::BidView::parse(entry.payload);
            if (bid && entry.signer == bid->processor && bid->job_id == ctx_.job_id() &&
                dlt::is_valid_rate(bid->bid)) {
                screened.push_back({&submitter, &entry, *bid});
            } else {
                // Offense (iv): an entry that "fails authentication" —
                // the submitter altered someone's signed bid. A bid
                // outside the rate domain counts the same: honest nodes
                // discard such a bid, so none keeps one to submit.
                deviants.insert(submitter);
            }
        }
    }
    std::vector<std::uint8_t> verdicts(screened.size());
    static_assert(sizeof(bool) == 1);
    std::vector<crypto::Pki::VerifyRequest> requests(screened.size());
    for (std::size_t i = 0; i < screened.size(); ++i) {
        requests[i] = {&screened[i].entry->signer, screened[i].entry->payload,
                       screened[i].entry->signature};
    }
    ctx_.pki().verify_many(requests, reinterpret_cast<bool*>(verdicts.data()));
    // Pass 2: canonical-bid dedup over the verified entries, same order.
    // value_of[processor] -> (payload bytes, bid) from the first valid entry.
    std::map<std::string, std::pair<util::Bytes, double>, std::less<>> canonical;
    for (std::size_t i = 0; i < screened.size(); ++i) {
        const auto& item = screened[i];
        if (verdicts[i] == 0) {
            deviants.insert(*item.submitter);
            continue;
        }
        auto it = canonical.find(item.bid.processor);
        if (it == canonical.end()) {
            canonical.emplace(std::string(item.bid.processor),
                              std::make_pair(item.entry->payload, item.bid.bid));
        } else if (it->second.first != item.entry->payload) {
            // Two *valid* signatures by the same processor over different
            // bids: that processor double-signed (covers a submitter
            // re-signing its own altered entry).
            deviants.insert(std::string(item.bid.processor));
        }
    }
    const crypto::Pki::CacheStats cache_after = ctx_.pki().verify_cache_stats();
    auto& registry = ctx_.metrics_registry();
    registry.counter(kVerifyCacheMetric, {{"outcome", "hit"}})
        .inc(cache_after.hits - cache_before.hits);
    registry.counter(kVerifyCacheMetric, {{"outcome", "miss"}})
        .inc(cache_after.misses - cache_before.misses);
    if (deviants.empty()) {
        // A submission must cover every bidder to be usable.
        for (const auto& [submitter, body] : bid_vector_responses_) {
            if (!covers_bidders(body)) deviants.insert(submitter);
        }
    }
    if (deviants.empty()) {
        verified_bids_.clear();
        for (const auto& [processor, entry] : canonical) {
            verified_bids_[processor] = entry.second;
        }
        // m entries can still miss a processor by repeating another. (Under
        // churn, covers_bidders counted distinct bidders already.)
        if (!ctx_.churn_enabled() && verified_bids_.size() != ctx_.processor_count()) {
            // Some processor's bid is missing entirely; blame submitters.
            for (const auto& name : bid_vector_expected_) deviants.insert(name);
        }
    }
    ctx_.spans().close(verify_span, ctx_.clock().now());
    return deviants;
}

bool RefereeCore::covers_bidders(const BidVectorBody& body) const {
    if (!ctx_.churn_enabled()) return body.bids.size() == ctx_.processor_count();
    // A peer may also hold a late bid of an excluded processor; only the
    // active bidders count.
    std::set<std::string_view> active;
    for (const auto& entry : body.bids) {
        if (!churn_excluded_.contains(entry.signer)) active.insert(entry.signer);
    }
    return active.size() == churn_active_count();
}

std::vector<std::uint8_t> RefereeCore::excluded_ids() const {
    std::vector<std::uint8_t> excluded(ctx_.processor_count(), 0);
    for (const auto& processor : churn_excluded_) excluded[ctx_.index_of(processor)] = 1;
    return excluded;
}

std::vector<double> RefereeCore::bids_by_id(const std::map<std::string, double>& bids) const {
    std::vector<double> table(ctx_.processor_count(), 0.0);
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto& processor = ctx_.processor_names()[i];
        if (!churn_excluded_.contains(processor)) table[i] = bids.at(processor);
    }
    return table;
}

Allocation RefereeCore::allocation_over(const std::map<std::string, double>& bids) const {
    const ProtocolConfig& config = ctx_.config();
    return allocate(config.kind, config.z, config.block_count, bids_by_id(bids),
                    excluded_ids());
}

std::vector<double> RefereeCore::settlement_over(const std::map<std::string, double>& bids,
                                                 std::span<const std::size_t> prescribed,
                                                 std::span<const std::size_t> realized) const {
    const std::vector<double> bid_table = bids_by_id(bids);
    const std::vector<std::uint8_t> excluded = excluded_ids();
    std::vector<std::optional<double>> phi(ctx_.processor_count());
    for (std::size_t i = 0; i < phi.size(); ++i) {
        const auto& processor = ctx_.processor_names()[i];
        if (ctx_.meters().finished(processor)) phi[i] = ctx_.meters().elapsed(processor);
    }
    const ProtocolConfig& config = ctx_.config();
    return settle_payments({.kind = config.kind,
                            .z = config.z,
                            .block_count = config.block_count,
                            .bids = bid_table,
                            .excluded = excluded,
                            .prescribed = prescribed,
                            .realized = realized,
                            .phi = phi});
}

void RefereeCore::adjudicate_alloc_complaint() {
    const auto& complaint = *open_complaint_;
    const std::string& lo = ctx_.load_origin();
    const std::string& complainant = complaint.complainant;

    // Reconstruct the prescribed assignment from the verified bids.
    const std::vector<std::size_t> counts = allocation_over(verified_bids_).blocks;
    const std::size_t complainant_index = ctx_.index_of(complainant);
    const std::size_t expected = counts[complainant_index];

    // The shared bus is the witness (tamper-proof network, §4): what did the
    // LO actually put on the wire for the complainant?
    const ShippedRecord* shipped = ctx_.shipped_to(complainant);
    const std::size_t valid = shipped ? shipped->valid_blocks : 0;
    const std::size_t invalid = shipped ? shipped->invalid_blocks : 0;

    if (invalid > 0) {
        // "the load unit integrity check failed" -> P_lo fined.
        count_accusation("allocation", /*substantiated=*/true);
        issue_verdict({lo}, "load-unit integrity failure by " + lo, /*terminate=*/true);
        return;
    }
    if (valid > expected) {
        // α̃_i > α_i, substantiated by the complainant's authentic surplus
        // blocks (checked against the user's commitment) and the bus record.
        std::size_t authentic_held = 0;
        for (const auto& batch : complaint.held_batches) {
            if (DataSet::verify_batch(ctx_.dataset().root(), ctx_.dataset().block_count(),
                                      batch)) {
                authentic_held += batch.entries.size();
            }
        }
        count_accusation("allocation", authentic_held > expected);
        if (authentic_held > expected) {
            issue_verdict({lo}, "over-shipment by " + lo, /*terminate=*/true);
        } else {
            issue_verdict({complainant},
                          "unsubstantiated over-shipment claim by " + complainant,
                          /*terminate=*/true);
        }
        return;
    }
    if (valid < expected) {
        // α̃_i < α_i: mediate — request the missing units through us.
        stage_ = DisputeStage::kAllocAwaitingMediation;
        MediateRequestBody request;
        request.beneficiary = complainant;
        const std::size_t start = block_starts(counts)[complainant_index];
        for (std::size_t k = valid; k < expected; ++k) {
            request.block_ids.push_back((start + k) % ctx_.config().block_count);
        }
        ctx_.transport().unicast(name(), ctx_.load_origin(),
                                 to_wire(MsgType::kMediateRequest),
                                 wire::flat_encode(request));
        return;
    }
    // valid == expected: the bus shows a correct assignment; the claim is
    // unfounded -> complainant fined.
    count_accusation("allocation", /*substantiated=*/false);
    issue_verdict({complainant}, "unfounded allocation complaint by " + complainant,
                  /*terminate=*/true);
}

void RefereeCore::handle_mediate_blocks(const WireMessage& message) {
    flush_deferred();  // every branch below issues a verdict
    if (stage_ != DisputeStage::kAllocAwaitingMediation) return;
    if (message.from != ctx_.load_origin()) return;
    const auto batch = wire::LoadBatchView::parse(message.payload());
    const std::string& lo = ctx_.load_origin();
    if (!batch) {
        count_accusation("allocation", /*substantiated=*/true);
        issue_verdict({lo}, "malformed mediation response by " + lo, /*terminate=*/true);
        return;
    }
    if (!DataSet::verify_batch(ctx_.dataset().root(), ctx_.dataset().block_count(),
                               batch->blocks.to_owned())) {
        // "load unit integrity fails, P_lo is fined"
        count_accusation("allocation", /*substantiated=*/true);
        issue_verdict({lo}, "mediated block integrity failure by " + lo,
                      /*terminate=*/true);
        return;
    }
    // The LO produced authentic blocks it had verifiably not shipped (bus
    // record): the short assignment is substantiated.
    count_accusation("allocation", /*substantiated=*/true);
    issue_verdict({lo}, "short-shipment by " + lo, /*terminate=*/true);
}

void RefereeCore::handle_mediate_refuse(const WireMessage& message) {
    flush_deferred();  // the refusal verdict is observable
    if (stage_ != DisputeStage::kAllocAwaitingMediation) return;
    if (message.from != ctx_.load_origin()) return;
    // "If P_lo refuses to transmit the correct number of load units ...
    // P_lo is fined."
    count_accusation("allocation", /*substantiated=*/true);
    issue_verdict({ctx_.load_origin()}, "mediation refused by " + ctx_.load_origin(),
                  /*terminate=*/true);
}

// ---- meters and payments ----------------------------------------------------

void RefereeCore::on_all_meters_done() {
    flush_deferred();  // the φ broadcast opens the payments phase
    if (ctx_.terminated() || meters_broadcast_) return;
    if (ctx_.churn_enabled()) {
        // Crash adjudications may still be pending or reallocated extras
        // still executing; the churn gate decides when the φ vector is ready.
        maybe_finish_meters();
        return;
    }
    meters_broadcast_ = true;
    ctx_.set_phase(Phase::kPayments);
    MeterVectorBody body;
    body.job_id = ctx_.job_id();
    for (const auto& processor : ctx_.processor_names()) {
        if (ctx_.meters().finished(processor)) {
            body.phis.emplace_back(processor, ctx_.meters().elapsed(processor));
        }
    }
    const obs::SpanContext meter_span = ctx_.spans().instant(
        "msg:meter_broadcast", name(), ctx_.clock().now(),
        ctx_.phase_span().span_id);
    ctx_.transport().broadcast(name(), to_wire(MsgType::kMeterBroadcast),
                               wire::flat_encode(body), meter_span.span_id);
}

void RefereeCore::handle_payment_vector(const WireMessage& message) {
    if (settled_ || verdict_issued_) return;
    auto envelope = wire::SignedFrame::parse(message.frame);
    if (!envelope || envelope->view().signer != message.from) return;
    const auto sender = ctx_.find_index(message.from);
    if (!sender) return;  // only processors submit payment vectors

    // Deferred intake: submissions accumulate unverified; the flush — at
    // the possible quorum, the batch limit (1 when verify_batch <= 1:
    // eager), or any observable boundary — replays arrival order, so
    // discards and the evaluation schedule land exactly where eager
    // verification would put them.
    if (pending_payments_.push(*sender, std::move(*envelope)) && submitted_[*sender] == 0) {
        ++queued_unsubmitted_;
    }
    if (pending_payments_.full() || payment_quorum_possible()) flush_deferred();
}

std::size_t RefereeCore::payment_quorum() const noexcept {
    // Under churn dead bidders never submit; the payment deadline settles
    // without them, but a full set of active submissions settles early.
    return ctx_.churn_enabled() ? churn_active_count() : ctx_.processor_count();
}

void RefereeCore::apply_payment(std::size_t sender, const wire::SignedFrame& envelope,
                                bool verified) {
    if (!verified) return;  // unauthenticated submissions are discarded
    const std::string& from = ctx_.processor_names()[sender];
    const auto body = wire::PaymentView::parse(envelope.view().payload);
    if (!body || body->processor != from || body->job_id != ctx_.job_id()) return;
    if (body->payment_count != ctx_.processor_count()) return;

    submitted_[sender] = 1;
    payment_submissions_[from].push_back(envelope);
    auto& values = payment_values_[from];
    values.clear();
    values.reserve(body->payment_count);
    wire::Cursor payments = body->payments;
    for (std::uint64_t k = 0; k < body->payment_count; ++k) {
        values.push_back(payments.f64());
    }

    if (payment_submissions_.size() == payment_quorum() && !payment_evaluation_scheduled_) {
        // Defer one event so same-timestamp contradictory submissions are
        // all in before judging.
        payment_evaluation_scheduled_ = true;
        ctx_.clock().call_after(0.0, [this] { evaluate_payments(); });
    }
}

void RefereeCore::evaluate_payments() {
    flush_deferred();  // judge over every submission that has arrived
    if (settled_ || verdict_issued_ || ctx_.terminated()) return;
    if (ctx_.churn_enabled()) {
        // The referee recorded the bids itself: no bid-vector dispute is
        // needed, it settles on the canonical churn vector directly.
        churn_evaluate_payments();
        return;
    }
    const obs::SpanContext verify_span = ctx_.spans().instant(
        "verify:payments", name(), ctx_.clock().now(), ctx_.phase_span().span_id);
    (void)verify_span;

    // Contradictory submissions (§4: "If there are multiple contradictory
    // messages from P_i, the referee fines it").
    std::set<std::string> contradictory;
    for (const auto& [submitter, submissions] : payment_submissions_) {
        if (contradicts(submissions)) contradictory.insert(submitter);
    }

    // Equality check across submitters.
    bool all_equal = contradictory.empty();
    if (all_equal) {
        const auto& reference = payment_values_.begin()->second;
        for (const auto& [submitter, values] : payment_values_) {
            if (values != reference) {
                all_equal = false;
                break;
            }
        }
    }
    if (all_equal) {
        settle(payment_values_.begin()->second);
        return;
    }

    // "If there is inequality among the vectors, the bids are provided to
    // the referee which computes the payments."
    if (!contradictory.empty() && contradictory.size() == ctx_.processor_count()) {
        // Degenerate: nobody is trustworthy; fine everyone and stop.
        issue_verdict(contradictory, "all payment vectors contradictory",
                      /*terminate=*/true);
        return;
    }
    stage_ = DisputeStage::kPaymentAwaitingBidVectors;
    count_dispute_opened("payment");
    bid_vector_responses_.clear();
    bid_vector_expected_.clear();
    for (const auto& processor : ctx_.processor_names()) {
        bid_vector_expected_.insert(processor);
        ctx_.transport().unicast(name(), processor, to_wire(MsgType::kBidVectorRequest),
                                 {});
    }
}

void RefereeCore::recompute_and_settle() {
    std::vector<double> payments;
    {
        OBS_SCOPE("payments");
        const std::vector<std::size_t> counts = allocation_over(verified_bids_).blocks;
        payments = settlement_over(verified_bids_, counts, counts);
    }

    std::set<std::string> wrong;
    for (const auto& [submitter, submissions] : payment_submissions_) {
        if (contradicts(submissions) || payment_values_.at(submitter) != payments) {
            wrong.insert(submitter);
        }
    }
    if (!wrong.empty()) {
        // "The referee fines F to the x processors who incorrectly computed
        // the payments ... distributes xF/(m-x) to each of the m-x correct
        // processors." The protocol is not aborted: work is done, payments
        // still settle.
        issue_verdict(wrong, "incorrect payment vector(s)", /*terminate=*/false);
    }
    settle(payments);
}

void RefereeCore::settle(const std::vector<double>& payments) {
    settled_ = true;
    settled_payments_ = payments;
    count_dispute_resolved();  // no-op when no dispute was open
    ctx_.set_phase(Phase::kDone);
    for (std::size_t i = 0; i < payments.size(); ++i) {
        ctx_.ledger().transfer(ctx_.user_name(), ctx_.processor_names()[i], payments[i],
                               "payment Q_" + std::to_string(i + 1));
        user_paid_ += payments[i];
    }
    util::ByteWriter w;
    w.str("settled");
    ctx_.transport().broadcast(name(), to_wire(MsgType::kSettled), w.take());
}

// ---- fines -----------------------------------------------------------------

void RefereeCore::issue_verdict(const std::set<std::string>& deviants,
                                const std::string& reason, bool terminate) {
    if (deviants.empty()) throw std::logic_error("Referee: verdict without deviants");
    if (!ctx_.fine_posted()) {
        throw std::logic_error("Referee: verdict before the fine F was posted");
    }
    if (terminate) verdict_issued_ = true;
    const double fine = ctx_.fine_amount();
    ctx_.transport().note_verdict(ctx_.clock().now(), name(),
                                  reason + " fine=" + std::to_string(fine));

    auto& registry = ctx_.metrics_registry();
    registry.counter(kFinesMetric).inc(deviants.size());
    registry.gauge(kFinesAmountMetric)
        .add(fine * static_cast<double>(deviants.size()));
    // Fine spans parent on the dispute that produced the verdict (captured
    // before resolution closes it; phase span for dispute-free verdicts).
    const std::uint64_t fine_parent =
        dispute_span_.valid() ? dispute_span_.span_id : ctx_.phase_span().span_id;
    count_dispute_resolved();  // no-op when the verdict needed no dispute

    util::log_debug("referee", "verdict: " + reason +
                                   " deviants=" + std::to_string(deviants.size()) +
                                   " fine=" + std::to_string(fine) +
                                   (terminate ? " (terminating)" : ""));
    auto& events = obs::EventLog::instance();
    if (events.enabled(obs::LogLevel::Debug)) {
        std::string deviant_list;
        for (const auto& deviant : deviants) {
            if (!deviant_list.empty()) deviant_list += ",";
            deviant_list += deviant;
        }
        events.emit(obs::Event(obs::LogLevel::Debug, "referee", "verdict")
                        .time(ctx_.clock().now())
                        .str("reason", reason)
                        .str("deviants", deviant_list)
                        .num("fine", fine)
                        .boolean("terminate", terminate));
    }

    double pool = 0.0;
    for (const auto& deviant : deviants) {
        // One instant span per fined processor.
        ctx_.spans().instant("fine:" + deviant, name(), ctx_.clock().now(),
                             fine_parent);
        ctx_.ledger().transfer(deviant, name(), fine, "fine: " + reason);
        fines_[deviant] += fine;
        pool += fine;
    }

    std::vector<std::string> honest;
    for (const auto& processor : ctx_.processor_names()) {
        if (!deviants.contains(processor)) honest.push_back(processor);
    }

    if (!terminate) {
        // Payment-phase verdict: work is done; split xF/(m-x) and continue.
        if (!honest.empty() && pool > 0.0) {
            const double share = pool / static_cast<double>(honest.size());
            for (const auto& processor : honest) {
                ctx_.ledger().transfer(name(), processor, share, "informer reward");
                rewards_[processor] += share;
            }
        }
        return;
    }

    ctx_.mark_terminated(reason);
    TerminateBody body;
    body.reason = reason;
    body.fined.assign(deviants.begin(), deviants.end());
    ctx_.transport().broadcast(name(), to_wire(MsgType::kTerminate),
                               wire::flat_encode(body));

    // Terminating verdict: §4 pays α_i w̃_i — the metered execution time
    // φ_i — to every non-deviant that commenced work, then splits the
    // remainder. φ_i is known only once those meters stop, so the payout is
    // deferred until the in-flight executions finish (their events are
    // already scheduled and the meter is tamper-proof).
    PendingTermination pending;
    pending.deviants = deviants;
    pending.pool = pool;
    for (const auto& processor : honest) {
        if (ctx_.meters().started(processor)) {
            pending.commenced.push_back(processor);
            if (!ctx_.meters().finished(processor)) pending.awaiting.insert(processor);
        }
    }
    pending_termination_ = std::move(pending);
    if (pending_termination_->awaiting.empty()) finalize_termination_payouts();
}

void RefereeCore::on_meter_stopped(const std::string& processor) {
    flush_deferred();  // payouts below must not race queued envelopes
    if (!pending_termination_) return;
    pending_termination_->awaiting.erase(processor);
    if (pending_termination_->awaiting.empty()) finalize_termination_payouts();
}

void RefereeCore::finalize_termination_payouts() {
    PendingTermination pending = std::move(*pending_termination_);
    pending_termination_.reset();

    double pool = pending.pool;
    // Compensation α_i w̃_i == φ_i, paid while the pool lasts (the paper's
    // F >= Σ_j α_j w̃_j bound guarantees it always does; E12 probes below).
    for (const auto& processor : pending.commenced) {
        const double comp = ctx_.meters().elapsed(processor);
        if (comp <= pool) {
            ctx_.ledger().transfer(name(), processor, comp, "termination comp");
            compensations_[processor] += comp;
            pool -= comp;
        }
    }
    // "The remainder is evenly distributed among the m - x non-deviating
    // processors."
    std::vector<std::string> honest;
    for (const auto& processor : ctx_.processor_names()) {
        if (!pending.deviants.contains(processor)) honest.push_back(processor);
    }
    if (!honest.empty() && pool > 0.0) {
        const double share = pool / static_cast<double>(honest.size());
        for (const auto& processor : honest) {
            ctx_.ledger().transfer(name(), processor, share, "informer reward");
            rewards_[processor] += share;
        }
    }
}

// ---- churn machinery (DESIGN.md "Churn model") ------------------------------

void RefereeCore::handle_churn_bid(const WireMessage& message) {
    auto envelope = wire::SignedFrame::parse(message.frame);
    if (!envelope || envelope->view().signer != message.from) return;
    const auto sender = ctx_.find_index(message.from);
    if (!sender) return;  // only processors bid
    // Deferred intake: the churn recorder is first-bid-wins after
    // verification and emits nothing until the bidder set is complete, so
    // only possible completion (or the batch limit) forces a flush.
    if (pending_churn_bids_.push(*sender, std::move(*envelope)) &&
        !churn_bids_.contains(message.from)) {
        ++queued_unrecorded_bidders_;
    }
    if (pending_churn_bids_.full() || churn_bid_set_possibly_complete()) {
        flush_deferred();
    }
}

void RefereeCore::apply_churn_bid(std::size_t sender, const wire::SignedFrame& envelope,
                                  bool verified) {
    if (!verified) return;
    const std::string& from = ctx_.processor_names()[sender];
    const auto body = wire::BidView::parse(envelope.view().payload);
    if (!body || body->processor != from || body->job_id != ctx_.job_id()) return;
    if (!dlt::is_valid_rate(body->bid)) return;  // discarded, as peers discard it
    // First bid wins: a stale rejoin replaying the identical signed bid is
    // benign, and a genuinely different second bid is offense (i) — the
    // peers' accusation path handles that, not the churn recorder.
    if (churn_bids_.contains(from)) return;
    churn_bids_[from] = body->bid;
    if (!churn_bids_complete_ && churn_bids_.size() == ctx_.processor_count()) {
        complete_churn_bidding();
    }
}

void RefereeCore::flush_deferred() {
    // Churn bids always precede payment vectors in a round, so replaying
    // the bid queue first preserves global arrival order across queues.
    queued_unrecorded_bidders_ = 0;
    pending_churn_bids_.flush(ctx_.pki(), [this](std::size_t sender,
                                                 const wire::SignedFrame& envelope,
                                                 bool verified) {
        apply_churn_bid(sender, envelope, verified);
    });
    queued_unsubmitted_ = 0;
    pending_payments_.flush(ctx_.pki(), [this](std::size_t sender,
                                               const wire::SignedFrame& envelope,
                                               bool verified) {
        apply_payment(sender, envelope, verified);
    });
}

void RefereeCore::complete_churn_bidding() {
    churn_bids_complete_ = true;
    churn_prescribed_ = allocation_over(churn_bids_).blocks;
    churn_counts_ = churn_prescribed_;
    if (!churn_watchdog_scheduled_) {
        churn_watchdog_scheduled_ = true;
        ctx_.clock().call_after(ctx_.config().churn_plan.policy.processing_grace,
                                [this] { check_processing(); });
    }
}

void RefereeCore::check_bids() {
    flush_deferred();  // the deadline ruling depends on who verifiably bid
    if (ctx_.terminated() || churn_bids_complete_) return;
    std::vector<std::string> missing;
    for (const auto& processor : ctx_.processor_names()) {
        if (!churn_bids_.contains(processor)) missing.push_back(processor);
    }
    if (missing.empty()) {
        complete_churn_bidding();
        return;
    }
    for (const auto& processor : missing) churn_excluded_.insert(processor);
    if (churn_excluded_.contains(ctx_.load_origin())) {
        churn_terminate("load origin excluded at bid deadline");
        return;
    }
    if (churn_active_count() < 2) {
        churn_terminate("fewer than two active bidders");
        return;
    }
    ctx_.metrics_registry().counter("dlsbl_churn_exclusions_total").inc(missing.size());
    for (const auto& processor : missing) {
        ctx_.transport().note_churn(ctx_.clock().now(), processor,
                                    "excluded reason=bid-timeout");
        ctx_.spans().instant("churn:exclude", processor, ctx_.clock().now(),
                             ctx_.run_span().span_id);
    }
    ctx_.adjust_expected_workers(-static_cast<std::ptrdiff_t>(missing.size()));
    ExcludeBody body;
    body.job_id = ctx_.job_id();
    body.excluded = missing;  // processor-index order
    ctx_.transport().broadcast(name(), to_wire(MsgType::kExclude),
                               wire::flat_encode(body));
    complete_churn_bidding();
}

void RefereeCore::check_processing() {
    flush_deferred();  // terminate/realloc rulings are observable
    if (ctx_.terminated() || settled_ || meters_broadcast_) return;
    std::vector<std::string> unstarted;
    for (std::size_t i = 0; i < ctx_.processor_count(); ++i) {
        const auto& processor = ctx_.processor_names()[i];
        if (churn_excluded_.contains(processor) || processor == churn_dead_) continue;
        if (churn_counts_[i] > 0 && !ctx_.meters().started(processor)) {
            unstarted.push_back(processor);
        }
    }
    if (unstarted.empty()) return;
    if (unstarted.size() > 1 || realloc_done_) {
        churn_terminate("multiple processors failed");
        return;
    }
    const std::string dead = unstarted.front();
    if (dead == ctx_.load_origin()) {
        churn_terminate("load origin never started processing");
        return;
    }
    // The dead assignee will never report a completion.
    ctx_.adjust_expected_workers(-1);
    ctx_.metrics_registry().counter("dlsbl_churn_meters_lost_total").inc();
    do_reallocate(dead, churn_counts_[ctx_.index_of(dead)], 0);
    maybe_finish_meters();
}

void RefereeCore::on_meter_lost(const std::string& processor, std::size_t exec_blocks,
                                std::size_t blocks_done) {
    if (ctx_.terminated() || settled_) return;
    ++pending_adjudications_;
    ctx_.clock().call_after(
        ctx_.config().churn_plan.policy.detection_timeout,
        [this, processor, exec_blocks, blocks_done] {
            --pending_adjudications_;
            flush_deferred();  // adjudication outcome is observable
            if (ctx_.terminated() || settled_) return;
            if (processor == ctx_.load_origin()) {
                // Nobody else holds the data set: the round cannot recover.
                churn_terminate("load origin crashed");
                return;
            }
            if (realloc_done_) {
                churn_terminate("multiple processors failed");
                return;
            }
            do_reallocate(processor, exec_blocks, blocks_done);
            maybe_finish_meters();
        });
}

void RefereeCore::do_reallocate(const std::string& dead, std::size_t exec_blocks,
                                std::size_t blocks_done) {
    realloc_done_ = true;
    churn_dead_ = dead;
    const std::size_t dead_index = ctx_.index_of(dead);
    const std::size_t assigned = churn_counts_[dead_index];
    // A deviant LO can make exec diverge from the prescription; clamp so the
    // reallocated range stays inside the dead processor's assignment.
    const std::size_t remaining = std::min(exec_blocks - blocks_done, assigned);
    churn_dead_final_ = assigned - remaining;
    churn_counts_[dead_index] = assigned - remaining;
    churn_realloc_blocks_ = remaining;

    std::vector<std::uint8_t> gone = excluded_ids();
    gone[dead_index] = 1;
    if (std::find(gone.begin(), gone.end(), 0) == gone.end()) {
        churn_terminate("no survivors for reallocation");
        return;
    }

    ReallocBody body;
    body.job_id = ctx_.job_id();
    body.dead = dead;
    body.dead_final = churn_dead_final_;
    if (remaining > 0) {
        // The NCP-NFE closed form over the survivors' bids: the extra batch
        // is received and then computed with no front end, the Figure 3
        // pattern, regardless of the run's primary kind.
        const std::vector<std::size_t> extra_counts =
            allocate(dlt::NetworkKind::kNcpNFE, ctx_.config().z, remaining,
                     bids_by_id(churn_bids_), gone)
                .blocks;
        std::ptrdiff_t granted = 0;
        for (std::size_t j = 0; j < extra_counts.size(); ++j) {
            if (extra_counts[j] == 0) continue;
            body.extras.emplace_back(ctx_.processor_names()[j], extra_counts[j]);
            churn_counts_[j] += extra_counts[j];
            ++granted;
        }
        // Every granted extra produces exactly one more execution completion.
        ctx_.adjust_expected_workers(granted);
    }
    auto& registry = ctx_.metrics_registry();
    registry.counter("dlsbl_churn_reallocations_total").inc();
    registry.counter("dlsbl_churn_realloc_blocks_total").inc(remaining);
    ctx_.transport().note_churn(ctx_.clock().now(), name(),
                                "realloc dead=" + dead +
                                    " final=" + std::to_string(churn_dead_final_) +
                                    " remaining=" + std::to_string(remaining) +
                                    " extras=" + std::to_string(body.extras.size()));
    ctx_.spans().instant("churn:realloc", name(), ctx_.clock().now(),
                         ctx_.run_span().span_id);
    ctx_.transport().broadcast(name(), to_wire(MsgType::kRealloc),
                               wire::flat_encode(body));
}

void RefereeCore::maybe_finish_meters() {
    if (ctx_.terminated() || meters_broadcast_ || verdict_issued_) return;
    if (!churn_bids_complete_ || pending_adjudications_ > 0) return;
    if (ctx_.expected_workers() == 0 ||
        ctx_.finished_workers() != ctx_.expected_workers()) {
        return;
    }
    meters_broadcast_ = true;
    ctx_.set_phase(Phase::kPayments);
    MeterVectorBody body;
    body.job_id = ctx_.job_id();
    for (const auto& processor : ctx_.processor_names()) {
        if (ctx_.meters().finished(processor)) {
            body.phis.emplace_back(processor, ctx_.meters().elapsed(processor));
        }
    }
    churn_meter_frame_ = wire::flat_encode(body);
    const obs::SpanContext meter_span = ctx_.spans().instant(
        "msg:meter_broadcast", name(), ctx_.clock().now(), ctx_.phase_span().span_id);
    ctx_.transport().broadcast(name(), to_wire(MsgType::kMeterBroadcast),
                               churn_meter_frame_, meter_span.span_id);
    const double timeout = ctx_.config().churn_plan.policy.payment_timeout;
    ctx_.clock().call_after(timeout, [this] {
        if (settled_ || ctx_.terminated() || verdict_issued_) return;
        // Submissions are missing: retransmit for nodes whose first copy
        // fell into a loss window (submitters dedup on their side).
        ctx_.transport().note_churn(ctx_.clock().now(), name(), "meter-retransmit");
        ctx_.transport().broadcast(name(), to_wire(MsgType::kMeterBroadcast),
                                   churn_meter_frame_);
    });
    if (!churn_settle_scheduled_) {
        churn_settle_scheduled_ = true;
        ctx_.clock().call_after(2.0 * timeout, [this] {
            if (settled_ || ctx_.terminated()) return;
            churn_evaluate_payments();
        });
    }
}

void RefereeCore::churn_evaluate_payments() {
    flush_deferred();  // settle over every submission that has arrived
    if (settled_ || ctx_.terminated()) return;
    std::vector<double> canonical;
    {
        OBS_SCOPE("payments");
        canonical = settlement_over(churn_bids_, churn_prescribed_, churn_counts_);
    }

    // Submitted vectors that disagree with the canonical settlement are
    // offense (iii); missing submissions (dead processors) are not fined —
    // death is not an offense.
    std::set<std::string> wrong;
    for (const auto& [submitter, submissions] : payment_submissions_) {
        if (contradicts(submissions) || payment_values_.at(submitter) != canonical) {
            wrong.insert(submitter);
        }
    }
    if (!wrong.empty()) {
        issue_verdict(wrong, "incorrect payment vector(s) under churn",
                      /*terminate=*/false);
    }
    settle(canonical);
}

void RefereeCore::churn_terminate(const std::string& reason) {
    if (ctx_.terminated() || settled_) return;
    ctx_.metrics_registry().counter("dlsbl_churn_terminations_total").inc();
    ctx_.transport().note_churn(ctx_.clock().now(), name(), "terminate reason=" + reason);
    ctx_.spans().instant("churn:terminate", name(), ctx_.clock().now(),
                         ctx_.run_span().span_id);
    ctx_.mark_terminated("churn: " + reason);
    TerminateBody body;
    body.reason = "churn: " + reason;
    ctx_.transport().broadcast(name(), to_wire(MsgType::kTerminate),
                               wire::flat_encode(body));
}

}  // namespace dlsbl::protocol

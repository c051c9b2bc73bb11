#include "protocol/node.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profiler.hpp"
#include "protocol/wire.hpp"
#include "util/logging.hpp"

namespace dlsbl::protocol {
namespace {
// Deliberately outside the MsgType range: junk-spammer noise that every
// conforming endpoint must drop (and count on the unknown-messages metric).
constexpr std::uint32_t kJunkWireType = 9999;
}  // namespace

NodeCore::NodeCore(RunContext& context, std::size_t index,
                   std::unique_ptr<crypto::Signer> signer, Strategy strategy)
    : Endpoint(context.processor_names()[index]),
      ctx_(context),
      index_(index),
      true_w_(context.config().true_w[index]),
      strategy_(std::move(strategy)),
      signer_(std::move(signer)),
      first_bids_(context.processor_count()),
      bid_values_(context.processor_count(), 0.0),
      excluded_(context.processor_count(), 0),
      active_count_(context.processor_count()),
      pending_bids_(context.config().verify_batch, context.processor_names()) {
    bid_ = strategy_.bid_factor * true_w_;
    // Physical constraint enforced again by the context at execution time.
    exec_rate_ = std::max(true_w_, strategy_.exec_factor * true_w_);
    register_handlers();
}

void NodeCore::register_handlers() {
    dispatch_.on(MsgType::kBid, [this](const WireMessage& m) { handle_bid(m); });
    dispatch_.on(MsgType::kLoadDelivery,
                 [this](const WireMessage& m) { handle_load_delivery(m); });
    dispatch_.on(MsgType::kMeterBroadcast,
                 [this](const WireMessage& m) { handle_meter_broadcast(m); });
    dispatch_.on(MsgType::kBidVectorRequest,
                 [this](const WireMessage&) { handle_bid_vector_request(); });
    dispatch_.on(MsgType::kMediateRequest,
                 [this](const WireMessage& m) { handle_mediate_request(m); });
    // Churn rulings (no-ops outside churn mode: the handlers check).
    dispatch_.on(MsgType::kExclude, [this](const WireMessage& m) { handle_exclude(m); });
    dispatch_.on(MsgType::kRealloc, [this](const WireMessage& m) { handle_realloc(m); });
    // Referee verdict: stop participating.
    dispatch_.ignore(MsgType::kTerminate);
    dispatch_.on(MsgType::kSettled, [this](const WireMessage&) { settled_ = true; });
    // Referee-bound message kinds: known, deliberately ignored.
    dispatch_.ignore(MsgType::kAccuseDoubleBid);
    dispatch_.ignore(MsgType::kAllocComplaint);
    dispatch_.ignore(MsgType::kBidVectorResponse);
    dispatch_.ignore(MsgType::kMediateBlocks);
    dispatch_.ignore(MsgType::kMediateRefuse);
    dispatch_.ignore(MsgType::kPaymentVector);
}

bool NodeCore::is_load_origin() const { return name() == ctx_.load_origin(); }

std::optional<crypto::SignedMessage> NodeCore::sign(util::Bytes payload) {
    if (signer_->signatures_left() == 0) {
        ctx_.metrics_registry().counter(kSignaturesRefusedMetric).inc();
        return std::nullopt;
    }
    return crypto::sign_message(*signer_, name(), std::move(payload));
}

void NodeCore::on_start() {
    if (ctx_.phase() == Phase::kInit) ctx_.set_phase(Phase::kBidding);
    broadcast_bid(bid_);
    if (strategy_.second_bid_factor.has_value()) {
        // Offense (i): a second, different signed bid. Under the atomic
        // broadcast assumption everyone receives both.
        broadcast_bid(*strategy_.second_bid_factor * true_w_);
    }
    for (std::size_t k = 0; k < strategy_.junk_frames; ++k) {
        ctx_.transport().broadcast(name(), kJunkWireType, util::Bytes{0x6a, 0x6b});
    }
    if (ctx_.churn_enabled()) {
        for (const double t : ctx_.config().churn_plan.stale_rejoin_times(name())) {
            ctx_.clock().call_at(t, [this] {
                // A stale rejoin replays its first signed bid, the very
                // frame it broadcast: a fresh signature would be a
                // *different* payload (one-time signature keys) and read as
                // offense (i). Peers dedup the identical copy; the
                // referee's first-bid-wins rule too.
                const auto& own = first_bids_[index_];
                if (ctx_.terminated() || !own) return;
                ctx_.transport().note_churn(ctx_.clock().now(), name(),
                                            "stale-rejoin replay=bid");
                ctx_.transport().broadcast(name(), to_wire(MsgType::kBid), own->frame());
            });
        }
    }
}

void NodeCore::broadcast_bid(double value) {
    BidBody body;
    body.job_id = ctx_.job_id();
    body.processor = name();
    body.bid = value;
    const auto signed_msg = sign(wire::flat_encode(body));
    if (!signed_msg) return;
    util::Frame frame = wire::flat_encode(*signed_msg);
    // The node records its own (first) bid the same way it records peers',
    // by reference to the frame it broadcasts.
    if (!first_bids_[index_]) {
        if (auto own = wire::SignedFrame::parse(frame)) {
            record_bid(index_, *own, value);
            maybe_finish_bidding();
        }
    }
    // Causal anchor: the broadcast's bus records carry this span, so every
    // receiver's handling links back to the sender's bidding activity.
    const obs::SpanContext bid_span = ctx_.spans().instant(
        "msg:bid", name(), ctx_.clock().now(), ctx_.phase_span().span_id);
    ctx_.transport().broadcast(name(), to_wire(MsgType::kBid), std::move(frame),
                               bid_span.span_id);
}

void NodeCore::on_message(const WireMessage& message) {
    if (ctx_.terminated() && message.type != to_wire(MsgType::kTerminate)) return;
    dispatch_.dispatch(*this, message, ctx_.metrics_registry());
}

void NodeCore::handle_bid(const WireMessage& message) {
    OBS_SCOPE("bid_intake");
    auto envelope = wire::SignedFrame::parse(message.frame);
    if (!envelope) return;  // malformed: discarded (§4 Bidding)
    if (envelope->view().signer != message.from) return;
    const auto sender = ctx_.find_index(message.from);
    if (!sender) return;  // only processors bid

    // Deferred intake: park the envelope unverified and flush at the first
    // point an observable could depend on a verdict — a possible conflict
    // (accusation bytes), a possibly-complete round (allocation / phase
    // change), or the batch limit (1 when verify_batch <= 1: eager). The
    // false-accuse deviation emits on its very first recorded bid, so that
    // strategy flushes every arrival too.
    const auto& existing = first_bids_[*sender];
    const auto payload = envelope->view().payload;
    const bool conflict = pending_bids_.conflicts(*sender, payload) ||
                          (existing && !std::ranges::equal(existing->view().payload, payload));
    if (pending_bids_.push(*sender, std::move(*envelope)) && !existing &&
        excluded_[*sender] == 0) {
        ++active_queued_;
    }
    if (strategy_.false_accuse || pending_bids_.full() || conflict ||
        bid_set_possibly_complete()) {
        flush_pending_bids();
    }
}

void NodeCore::flush_pending_bids() {
    active_queued_ = 0;  // the whole queue is replayed below
    pending_bids_.flush(ctx_.pki(), [this](std::size_t sender,
                                           const wire::SignedFrame& envelope,
                                           bool verified) {
        apply_bid(sender, envelope, verified);
    });
}

void NodeCore::apply_bid(std::size_t sender, const wire::SignedFrame& envelope,
                         bool verified) {
    if (!verified) return;  // fails verification: discarded
    const std::string& from = ctx_.processor_names()[sender];
    const auto body = wire::BidView::parse(envelope.view().payload);
    if (!body || body->processor != from || body->job_id != ctx_.job_id()) return;
    // A bid outside the rate domain is discarded like a malformed one
    // (§4 Bidding): no allocation can be computed from it.
    if (!dlt::is_valid_rate(body->bid)) return;

    if (const auto& existing = first_bids_[sender]) {
        if (std::ranges::equal(existing->view().payload, envelope.view().payload)) {
            return;  // duplicate copy
        }
        // Offense (i): two authenticated, different bids from one sender.
        if (strategy_.report_deviations && !accused_double_bid_) {
            accused_double_bid_ = true;
            DoubleBidEvidence evidence;
            evidence.accused = from;
            evidence.first = existing->view().to_owned();
            evidence.second = envelope.view().to_owned();
            ctx_.transport().unicast(name(), ctx_.referee_name(),
                                     to_wire(MsgType::kAccuseDoubleBid),
                                     wire::flat_encode(evidence));
        }
        return;
    }
    record_bid(sender, envelope, body->bid);
    maybe_false_accuse(envelope);
    maybe_finish_bidding();
}

void NodeCore::record_bid(std::size_t sender, const wire::SignedFrame& envelope,
                          double value) {
    first_bids_[sender] = envelope;
    bid_values_[sender] = value;
    if (excluded_[sender] == 0) ++active_recorded_;
}

void NodeCore::maybe_false_accuse(const wire::SignedFrame& envelope) {
    if (!strategy_.false_accuse || false_accused_) return;
    false_accused_ = true;
    // Offense (v): fabricate a "second bid" by mutating the genuine payload.
    // The signature no longer matches, so the referee will find the claim
    // unfounded and fine the accuser.
    const crypto::SignedMessage genuine = envelope.view().to_owned();
    crypto::SignedMessage forged = genuine;
    const auto view = wire::BidView::parse(forged.payload);
    if (!view) return;
    BidBody mutated;
    mutated.job_id = view->job_id;
    mutated.processor = std::string(view->processor);
    mutated.bid = view->bid + 1.0;
    forged.payload = wire::flat_encode(mutated);
    DoubleBidEvidence evidence;
    evidence.accused = genuine.signer;
    evidence.first = genuine;
    evidence.second = forged;
    ctx_.transport().unicast(name(), ctx_.referee_name(), to_wire(MsgType::kAccuseDoubleBid),
                             wire::flat_encode(evidence));
}

void NodeCore::maybe_finish_bidding() {
    // Under churn the referee may have excluded dead bidders (kExclude); the
    // round then closes over the survivors. Outside churn (or before any
    // exclusion) this is the original all-m gate.
    if (bidding_finished_ || active_recorded_ != active_count_) return;
    bidding_finished_ = true;

    // Everyone computes the allocation locally (Algorithm 2.1 or 2.2) over
    // the active set.
    const ProtocolConfig& config = ctx_.config();
    allocation_ = allocate(config.kind, config.z, config.block_count, bid_values_, excluded_);
    blocks_assigned_ = allocation_.blocks[index_];

    // F becomes public the moment bids are public (§4: "All parties are
    // aware of the magnitude of F").
    double predicted_compensation = 0.0;
    for (std::size_t j = 0; j < bid_values_.size(); ++j) {
        if (excluded_[j] == 0) predicted_compensation += allocation_.alpha[j] * bid_values_[j];
    }
    ctx_.post_fine(predicted_compensation);

    if (ctx_.phase() == Phase::kBidding) ctx_.set_phase(Phase::kAllocating);

    if (is_load_origin()) {
        ship_loads();
    } else if (blocks_assigned_ == 0) {
        // Degenerate share: nothing will arrive on the bus; "process" the
        // empty assignment so the meter set stays complete.
        begin_processing(0);
    }
}

void NodeCore::ship_loads() {
    // Assignment of concrete block ids: contiguous ranges in processor
    // order — deterministic, so every party can reconstruct it.
    const std::vector<std::size_t>& blocks = allocation_.blocks;
    const std::vector<std::size_t> start = block_starts(blocks);
    for (std::size_t i = 0; i < ctx_.processor_count(); ++i) {
        if (i == index_) continue;
        std::size_t count = blocks[i];
        // Offense (ii): mis-sized assignments.
        // 1.0 is the "ship honestly" sentinel default, never computed.
        // DLSBL_LINT_ALLOW(float-equality)
        if (strategy_.lo_ship_factor != 1.0) {
            count = static_cast<std::size_t>(
                std::floor(static_cast<double>(count) * strategy_.lo_ship_factor));
        }
        if (count == 0 && blocks[i] == 0) continue;
        // Over-shipping runs past the intended range into the LO's own
        // blocks, so every extra block is still authentic.
        std::vector<std::uint64_t> ids(count);
        for (std::size_t k = 0; k < count; ++k) {
            ids[k] = (start[i] + k) % ctx_.config().block_count;
        }
        const obs::SpanContext ship_span = ctx_.spans().instant(
            "ship:" + ctx_.processor_names()[i], name(), ctx_.clock().now(),
            ctx_.phase_span().span_id);
        ctx_.ship_load(name(), ctx_.processor_names()[i],
                       load_batch(ids, strategy_.lo_corrupt_blocks), ship_span.span_id);
    }

    // The LO's own share never crosses the bus.
    if (ctx_.config().kind == dlt::NetworkKind::kNcpFE) {
        // Front end: compute concurrently with the outgoing transfers.
        begin_processing(blocks_assigned_);
    } else {
        // No front end (Figure 3): computation starts only after the last
        // outbound transfer releases the one-port bus.
        const double free_at = ctx_.transport().bus_free_at();
        ctx_.clock().call_at(free_at, [this] {
            if (!ctx_.terminated()) begin_processing(blocks_assigned_);
        });
    }
}

void NodeCore::handle_load_delivery(const WireMessage& message) {
    // Only the LO ships load. A delivery relayed by any other peer would
    // count toward this node's assignment and get it fined for an
    // unfounded over-shipment complaint (Lemma 5.2).
    if (message.from != ctx_.load_origin()) return;
    flush_pending_bids();  // delivery handling reads the allocation state
    if (ctx_.churn_enabled() && processing_started_ && extra_pending_ > 0) {
        // A churn reallocation: the LO shipped part of the dead processor's
        // undone range. Verified and executed as a second meter segment,
        // accounted separately from the primary assignment.
        const auto extra_batch = wire::LoadBatchView::parse(message.payload());
        if (!extra_batch) return;
        const obs::SpanContext verify_span = ctx_.spans().open(
            "verify_blocks", name(), ctx_.clock().now(),
            message.span_id != 0 ? message.span_id : ctx_.phase_span().span_id);
        const std::size_t valid = accept_batch(extra_batch->blocks);
        ctx_.spans().close(verify_span, ctx_.clock().now());
        extra_received_ += valid;
        extra_pending_ = 0;
        if (valid > 0) {
            ctx_.execute_load(name(), valid, exec_rate_, [] {}, verify_span.span_id);
        }
        return;
    }
    const auto batch = wire::LoadBatchView::parse(message.payload());
    if (!batch) return;
    // Verification parents on the delivery's ship span when it carried one,
    // so the catapult view shows LO ship -> bus transfer -> receiver verify.
    const obs::SpanContext verify_span = ctx_.spans().open(
        "verify_blocks", name(), ctx_.clock().now(),
        message.span_id != 0 ? message.span_id : ctx_.phase_span().span_id);
    const std::size_t valid = accept_batch(batch->blocks);
    const std::size_t invalid = batch->blocks.entry_count - valid;
    valid_received_ += valid;
    ctx_.spans().close(verify_span, ctx_.clock().now());
    compute_parent_span_ = verify_span.span_id;

    const std::size_t expected = blocks_assigned_;
    if (strategy_.false_short_claim && !complaint_filed_) {
        // Offense (v)/(ii-d): pretend half the assignment never arrived.
        file_complaint(AllocComplaintKind::kShortShipped, expected, expected / 2, {});
        return;
    }
    if (invalid > 0) {
        if (strategy_.report_deviations) {
            file_complaint(AllocComplaintKind::kBadIntegrity, expected, valid_received_,
                           held_batches_);
            return;
        }
    }
    if (valid_received_ < expected) {
        if (strategy_.report_deviations) {
            file_complaint(AllocComplaintKind::kShortShipped, expected, valid_received_, {});
            return;
        }
    } else if (valid_received_ > expected) {
        if (strategy_.report_deviations) {
            file_complaint(AllocComplaintKind::kOverShipped, expected, valid_received_,
                           held_batches_);
            return;
        }
    }
    // A silent (non-reporting) node just processes whatever it holds.
    if (!processing_started_ && valid_received_ >= expected) {
        begin_processing(valid_received_);
    } else if (!processing_started_ && !strategy_.report_deviations) {
        begin_processing(valid_received_);
    }
}

std::size_t NodeCore::accept_batch(const wire::BlockBatchView& view) {
    BlockBatch batch = view.to_owned();
    if (!DataSet::verify_batch(ctx_.dataset().root(), ctx_.dataset().block_count(),
                               batch)) {
        return 0;
    }
    held_batches_.push_back(std::move(batch));
    return held_batches_.back().entries.size();
}

LoadBatch NodeCore::load_batch(std::span<const std::uint64_t> ids, bool corrupt) const {
    LoadBatch batch;
    batch.origin = name();
    batch.blocks = ctx_.dataset().batch(ids);
    if (corrupt) {
        for (auto& entry : batch.blocks.entries) entry.payload_digest[0] ^= 0xff;
    }
    return batch;
}

void NodeCore::file_complaint(AllocComplaintKind kind, std::size_t expected,
                              std::size_t received, std::vector<BlockBatch> held) {
    if (complaint_filed_) return;
    complaint_filed_ = true;
    AllocComplaintBody body;
    body.kind = kind;
    body.complainant = name();
    body.expected_blocks = expected;
    body.received_blocks = received;
    body.held_batches = std::move(held);
    ctx_.transport().unicast(name(), ctx_.referee_name(),
                             to_wire(MsgType::kAllocComplaint), wire::flat_encode(body));
}

void NodeCore::begin_processing(std::size_t blocks) {
    if (processing_started_ || ctx_.terminated()) return;
    processing_started_ = true;
    if (ctx_.phase() == Phase::kAllocating) ctx_.set_phase(Phase::kProcessing);
    ctx_.execute_load(name(), blocks, exec_rate_, [] {}, compute_parent_span_);
}

void NodeCore::handle_meter_broadcast(const WireMessage& message) {
    flush_pending_bids();  // the payment computation reads bid_values_
    const auto view = wire::MeterVectorView::parse(message.payload());
    if (!view || message.from != ctx_.referee_name()) return;
    // Only a node that followed the round this far has an allocation and a
    // complete bid table to pay against; an early vector is dropped.
    if (!bidding_finished_) return;

    if (ctx_.churn_enabled()) {
        // At most one submission (the referee retransmits for peers whose
        // first copy fell into a loss window), and not from an excluded node.
        if (payment_submitted_ || excluded_self_) return;
        payment_submitted_ = true;
    }
    {
        OBS_SCOPE("payments");
        std::vector<std::optional<double>> phi(ctx_.processor_count());
        wire::Cursor phis = view->phis;
        for (std::uint64_t k = 0; k < view->phi_count; ++k) {
            const auto j = ctx_.find_index(phis.str());
            const double value = phis.f64();
            if (j) phi[*j] = value;
        }
        // Blocks actually run: the allocation, moved by a churn reallocation.
        std::vector<std::size_t> realized;
        if (realloc_dead_) {
            realized = allocation_.blocks;
            realized[*realloc_dead_] = static_cast<std::size_t>(realloc_dead_final_);
            for (const auto& [j, count] : realloc_extras_) {
                realized[j] += static_cast<std::size_t>(count);
            }
        }
        const ProtocolConfig& config = ctx_.config();
        payment_vector_ = settle_payments(
            {.kind = config.kind,
             .z = config.z,
             .block_count = config.block_count,
             .bids = bid_values_,
             .excluded = excluded_,
             .prescribed = allocation_.blocks,
             .realized = realloc_dead_ ? realized : allocation_.blocks,
             .phi = phi});
    }

    auto submit = [&](std::vector<double> q) {
        PaymentBody body_out;
        body_out.job_id = ctx_.job_id();
        body_out.processor = name();
        body_out.payments = std::move(q);
        const auto signed_msg = sign(wire::flat_encode(body_out));
        if (!signed_msg) return;
        // Payment submission parents on the meter broadcast that prompted it.
        const obs::SpanContext pay_span = ctx_.spans().instant(
            "msg:payment_vector", name(), ctx_.clock().now(),
            message.span_id != 0 ? message.span_id : ctx_.phase_span().span_id);
        ctx_.transport().unicast(name(), ctx_.referee_name(),
                                 to_wire(MsgType::kPaymentVector),
                                 wire::flat_encode(*signed_msg), pay_span.span_id);
    };

    if (strategy_.contradictory_payment_vectors) {
        // Offense (iii): multiple contradictory messages.
        submit(payment_vector_);
        auto inflated = payment_vector_;
        inflated[index_] += 1.0;
        submit(inflated);
        return;
    }
    if (strategy_.corrupt_payment_vector) {
        // Offense (iii): incorrect payment computation in its own favor.
        auto inflated = payment_vector_;
        inflated[index_] = inflated[index_] * 2.0 + 1.0;
        submit(inflated);
        return;
    }
    submit(payment_vector_);
}

void NodeCore::handle_bid_vector_request() {
    flush_pending_bids();  // the response must reflect every arrived bid
    BidVectorBody body;
    body.submitter = name();
    for (std::size_t j = 0; j < first_bids_.size(); ++j) {
        if (!first_bids_[j]) continue;
        crypto::SignedMessage entry = first_bids_[j]->view().to_owned();
        if (strategy_.tamper_bid_vector && j == index_) {
            // Offense (iv): alter own bid and re-sign — a *valid* signature
            // over a value inconsistent with what everyone else holds,
            // which the referee exposes as double-signing.
            const auto bid = wire::BidView::parse(entry.payload);
            if (bid) {
                BidBody halved;
                halved.job_id = bid->job_id;
                halved.processor = std::string(bid->processor);
                halved.bid = bid->bid * 0.5;
                // Refused: the original entry goes out instead.
                if (auto resigned = sign(wire::flat_encode(halved))) {
                    entry = std::move(*resigned);
                }
            }
        }
        body.bids.push_back(std::move(entry));
    }
    ctx_.transport().unicast(name(), ctx_.referee_name(),
                             to_wire(MsgType::kBidVectorResponse), wire::flat_encode(body));
}

void NodeCore::handle_mediate_request(const WireMessage& message) {
    flush_pending_bids();  // mediation replies are observable emissions
    const auto request = wire::MediateRequestView::parse(message.payload());
    if (!request || !is_load_origin()) return;
    if (strategy_.lo_refuse_mediation) {
        util::ByteWriter w;
        w.str(name());
        ctx_.transport().unicast(name(), ctx_.referee_name(),
                                 to_wire(MsgType::kMediateRefuse), w.take());
        return;
    }
    std::vector<std::uint64_t> ids(request->id_count);
    wire::Cursor requested = request->ids;
    for (auto& id : ids) id = requested.u64() % ctx_.config().block_count;
    ctx_.transport().unicast(name(), ctx_.referee_name(), to_wire(MsgType::kMediateBlocks),
                             wire::flat_encode(load_batch(ids, strategy_.lo_corrupt_blocks)));
}

// ---- churn handling (DESIGN.md "Churn model") -------------------------------

void NodeCore::handle_exclude(const WireMessage& message) {
    if (!ctx_.churn_enabled() || message.from != ctx_.referee_name()) return;
    flush_pending_bids();  // exclusion shrinks the active set the queue gates on
    const auto body = wire::ExcludeView::parse(message.payload());
    if (!body || body->job_id != ctx_.job_id()) return;
    wire::Cursor excluded_names = body->excluded;
    for (std::uint64_t k = 0; k < body->excluded_count; ++k) {
        const auto j = ctx_.find_index(excluded_names.str());
        if (!j || excluded_[*j] != 0) continue;
        // j leaves the active set, and with it any bid it had recorded or
        // queued.
        excluded_[*j] = 1;
        --active_count_;
        if (first_bids_[*j]) {
            --active_recorded_;
        } else if (pending_bids_.has_sender(*j)) {
            --active_queued_;
        }
    }
    if (excluded_[index_] != 0) {
        // We restarted after missing the bid deadline: the round went on
        // without us. Halt — no meter, no payment vector.
        excluded_self_ = true;
        bidding_finished_ = true;
        return;
    }
    maybe_finish_bidding();
}

void NodeCore::handle_realloc(const WireMessage& message) {
    if (!ctx_.churn_enabled() || message.from != ctx_.referee_name()) return;
    flush_pending_bids();  // reallocation reads the finished-bidding state
    const auto body = wire::ReallocView::parse(message.payload());
    if (!body || body->job_id != ctx_.job_id()) return;
    if (excluded_self_ || !bidding_finished_) return;
    // Names the referee sent that are not processors are ignored; without
    // a known dead processor there is no range to reallocate from.
    const auto dead = ctx_.find_index(body->dead);
    if (!dead) return;
    realloc_dead_ = dead;
    realloc_dead_final_ = body->dead_final;
    realloc_extras_.clear();
    std::uint64_t mine = 0;
    wire::Cursor extras = body->extras;
    for (std::uint64_t k = 0; k < body->extra_count; ++k) {
        const auto j = ctx_.find_index(extras.str());
        const std::uint64_t count = extras.u64();
        if (!j) continue;
        realloc_extras_.emplace_back(*j, count);
        if (*j == index_) mine = count;
    }

    if (is_load_origin()) {
        // Ship the dead processor's undone suffix of its contiguous range,
        // partitioned over the extras in message order.
        const std::size_t dead_start = block_starts(allocation_.blocks)[*dead];
        std::uint64_t offset = realloc_dead_final_;
        for (const auto& [j, count] : realloc_extras_) {
            if (j == index_) {
                offset += count;
                continue;  // the LO's own share never crosses the bus
            }
            std::vector<std::uint64_t> ids(count);
            for (std::uint64_t k = 0; k < count; ++k) {
                ids[k] = (dead_start + offset + k) % ctx_.config().block_count;
            }
            offset += count;
            const std::string& pname = ctx_.processor_names()[j];
            const obs::SpanContext ship_span = ctx_.spans().instant(
                "ship-extra:" + pname, name(), ctx_.clock().now(),
                message.span_id != 0 ? message.span_id : ctx_.phase_span().span_id);
            ctx_.ship_load(name(), pname, load_batch(ids, /*corrupt=*/false),
                           ship_span.span_id);
        }
        if (mine > 0) {
            extra_received_ += mine;
            ctx_.execute_load(name(), static_cast<std::size_t>(mine), exec_rate_, [] {},
                              compute_parent_span_);
        }
    } else if (mine > 0) {
        extra_pending_ = static_cast<std::size_t>(mine);
    }
}

}  // namespace dlsbl::protocol

#include "protocol/wire.hpp"

namespace dlsbl::protocol::wire {

namespace {

// Every legacy deserializer rejects repeated-field counts above this cap
// before attempting to materialize them; the view parsers keep the exact
// same bound so accept/reject sets stay identical.
constexpr std::uint64_t kSanityCap = 1 << 20;

// One length-prefixed signed envelope, nested-exhaustion enforced like
// SignedMessage::deserialize over a bytes() field.
std::optional<SignedMessageView> take_signed(Cursor& c) {
    const auto nested = c.bytes();
    if (!c.ok()) return std::nullopt;
    return SignedMessageView::parse(nested);
}

}  // namespace

// ---- signed envelopes ------------------------------------------------------

std::optional<SignedMessageView> SignedMessageView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    SignedMessageView view;
    view.signer = c.str();
    view.payload = c.bytes();
    view.signature = c.bytes();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::optional<SignedFrame> SignedFrame::parse(util::Frame frame) {
    const auto view = SignedMessageView::parse(frame.bytes());
    if (!view) return std::nullopt;
    return SignedFrame(std::move(frame), *view);
}

crypto::SignedMessage SignedMessageView::to_owned() const {
    crypto::SignedMessage msg;
    msg.signer.assign(signer);
    msg.payload.assign(payload.begin(), payload.end());
    msg.signature.assign(signature.begin(), signature.end());
    return msg;
}

std::size_t encoded_size(const crypto::SignedMessage& msg) noexcept {
    return str_size(msg.signer) + bytes_size(msg.payload.size()) +
           bytes_size(msg.signature.size());
}

void encode(const crypto::SignedMessage& msg, FlatWriter& w) noexcept {
    w.str(msg.signer);
    w.bytes(msg.payload);
    w.bytes(msg.signature);
}

util::Bytes flat_signed(std::string_view signer, std::span<const std::uint8_t> payload,
                        std::span<const std::uint8_t> signature) {
    util::Bytes out(str_size(signer) + bytes_size(payload.size()) +
                    bytes_size(signature.size()));
    FlatWriter w(std::span<std::uint8_t>(out.data(), out.size()));
    w.str(signer);
    w.bytes(payload);
    w.bytes(signature);
    return out;
}

// ---- bid -------------------------------------------------------------------

std::optional<BidView> BidView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "bid") return std::nullopt;
    BidView view;
    view.job_id = c.u64();
    view.processor = c.str();
    view.bid = c.f64();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const BidBody& body) noexcept {
    return str_size("bid") + 8 + str_size(body.processor) + 8;
}

void encode(const BidBody& body, FlatWriter& w) noexcept {
    w.str("bid");
    w.u64(body.job_id);
    w.str(body.processor);
    w.f64(body.bid);
}

// ---- block batches ---------------------------------------------------------

std::optional<BlockBatchView> BlockBatchView::next(Cursor& c) {
    BlockBatchView view;
    view.entry_count = c.u64();
    if (!c.ok() || view.entry_count > kSanityCap) return std::nullopt;
    view.entries = c.raw(40 * view.entry_count);
    const std::uint64_t sibling_count = c.u64();
    if (!c.ok() || sibling_count > kSanityCap) return std::nullopt;
    view.proof = c.raw(32 * sibling_count);
    if (!c.ok()) return std::nullopt;
    return view;
}

BlockBatch BlockBatchView::to_owned() const {
    BlockBatch batch;
    batch.entries.resize(entry_count);
    Cursor c(entries);
    for (auto& entry : batch.entries) {
        entry.id = c.u64();
        std::memcpy(entry.payload_digest.data(), c.raw(32).data(), 32);
    }
    batch.proof.resize(proof.size() / 32);
    std::memcpy(batch.proof.data(), proof.data(), proof.size());
    return batch;
}

std::size_t encoded_size(const BlockBatch& batch) noexcept {
    return 8 + 40 * batch.entries.size() + 8 + 32 * batch.proof.size();
}

void encode(const BlockBatch& batch, FlatWriter& w) noexcept {
    w.u64(batch.entries.size());
    for (const auto& entry : batch.entries) {
        w.u64(entry.id);
        w.raw(entry.payload_digest);
    }
    w.u64(batch.proof.size());
    for (const auto& sibling : batch.proof) w.raw(sibling);
}

// ---- load batch ------------------------------------------------------------

std::optional<LoadBatchView> LoadBatchView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    LoadBatchView view;
    view.origin = c.str();
    const auto blocks = BlockBatchView::next(c);
    if (!blocks || !c.exhausted()) return std::nullopt;
    view.blocks = *blocks;
    return view;
}

std::size_t encoded_size(const LoadBatch& batch) noexcept {
    return str_size(batch.origin) + encoded_size(batch.blocks);
}

void encode(const LoadBatch& batch, FlatWriter& w) noexcept {
    w.str(batch.origin);
    encode(batch.blocks, w);
}

// ---- double-bid evidence ---------------------------------------------------

std::optional<DoubleBidEvidenceView> DoubleBidEvidenceView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    DoubleBidEvidenceView view;
    view.accused = c.str();
    const auto first = take_signed(c);
    const auto second = take_signed(c);
    if (!first || !second || !c.exhausted()) return std::nullopt;
    view.first = *first;
    view.second = *second;
    return view;
}

std::size_t encoded_size(const DoubleBidEvidence& evidence) noexcept {
    return str_size(evidence.accused) + bytes_size(encoded_size(evidence.first)) +
           bytes_size(encoded_size(evidence.second));
}

void encode(const DoubleBidEvidence& evidence, FlatWriter& w) noexcept {
    w.str(evidence.accused);
    w.u64(encoded_size(evidence.first));
    encode(evidence.first, w);
    w.u64(encoded_size(evidence.second));
    encode(evidence.second, w);
}

// ---- allocation complaint --------------------------------------------------

std::optional<AllocComplaintView> AllocComplaintView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    const std::uint8_t kind = c.u8();
    if (!c.ok() || kind < 1 || kind > 3) return std::nullopt;
    AllocComplaintView view;
    view.kind = static_cast<AllocComplaintKind>(kind);
    view.complainant = c.str();
    view.expected_blocks = c.u64();
    view.received_blocks = c.u64();
    view.held_count = c.u64();
    if (!c.ok() || view.held_count > kSanityCap) return std::nullopt;
    view.held = c;
    for (std::uint64_t i = 0; i < view.held_count; ++i) {
        if (!BlockBatchView::next(c)) return std::nullopt;
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const AllocComplaintBody& body) noexcept {
    std::size_t total = 1 + str_size(body.complainant) + 8 + 8 + 8;
    for (const auto& batch : body.held_batches) total += encoded_size(batch);
    return total;
}

void encode(const AllocComplaintBody& body, FlatWriter& w) noexcept {
    w.u8(static_cast<std::uint8_t>(body.kind));
    w.str(body.complainant);
    w.u64(body.expected_blocks);
    w.u64(body.received_blocks);
    w.u64(body.held_batches.size());
    for (const auto& batch : body.held_batches) encode(batch, w);
}

// ---- bid vector ------------------------------------------------------------

std::optional<SignedMessageView> BidVectorView::next_signed(Cursor& c) {
    return take_signed(c);
}

std::optional<BidVectorView> BidVectorView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    BidVectorView view;
    view.submitter = c.str();
    view.bid_count = c.u64();
    if (!c.ok() || view.bid_count > kSanityCap) return std::nullopt;
    view.bids = c;
    for (std::uint64_t i = 0; i < view.bid_count; ++i) {
        if (!take_signed(c)) return std::nullopt;
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const BidVectorBody& body) noexcept {
    std::size_t total = str_size(body.submitter) + 8;
    for (const auto& bid : body.bids) total += bytes_size(encoded_size(bid));
    return total;
}

void encode(const BidVectorBody& body, FlatWriter& w) noexcept {
    w.str(body.submitter);
    w.u64(body.bids.size());
    for (const auto& bid : body.bids) {
        w.u64(encoded_size(bid));
        encode(bid, w);
    }
}

// ---- mediate request -------------------------------------------------------

std::optional<MediateRequestView> MediateRequestView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    MediateRequestView view;
    view.beneficiary = c.str();
    view.id_count = c.u64();
    if (!c.ok() || view.id_count > kSanityCap) return std::nullopt;
    view.ids = c;
    c.raw(8 * view.id_count);
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const MediateRequestBody& body) noexcept {
    return str_size(body.beneficiary) + 8 + 8 * body.block_ids.size();
}

void encode(const MediateRequestBody& body, FlatWriter& w) noexcept {
    w.str(body.beneficiary);
    w.u64(body.block_ids.size());
    for (const std::uint64_t id : body.block_ids) w.u64(id);
}

// ---- meter vector ----------------------------------------------------------

std::optional<MeterVectorView> MeterVectorView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "meters") return std::nullopt;
    MeterVectorView view;
    view.job_id = c.u64();
    view.phi_count = c.u64();
    if (!c.ok() || view.phi_count > kSanityCap) return std::nullopt;
    view.phis = c;
    for (std::uint64_t i = 0; i < view.phi_count; ++i) {
        c.str();
        c.f64();
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const MeterVectorBody& body) noexcept {
    std::size_t total = str_size("meters") + 8 + 8;
    for (const auto& [processor, phi] : body.phis) total += str_size(processor) + 8;
    return total;
}

void encode(const MeterVectorBody& body, FlatWriter& w) noexcept {
    w.str("meters");
    w.u64(body.job_id);
    w.u64(body.phis.size());
    for (const auto& [processor, phi] : body.phis) {
        w.str(processor);
        w.f64(phi);
    }
}

// ---- payment vector --------------------------------------------------------

std::optional<PaymentView> PaymentView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "payments") return std::nullopt;
    PaymentView view;
    view.job_id = c.u64();
    view.processor = c.str();
    view.payment_count = c.u64();
    if (!c.ok() || view.payment_count > kSanityCap) return std::nullopt;
    view.payments = c;
    c.raw(8 * view.payment_count);
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const PaymentBody& body) noexcept {
    return str_size("payments") + 8 + str_size(body.processor) + 8 +
           8 * body.payments.size();
}

void encode(const PaymentBody& body, FlatWriter& w) noexcept {
    w.str("payments");
    w.u64(body.job_id);
    w.str(body.processor);
    w.u64(body.payments.size());
    for (const double q : body.payments) w.f64(q);
}

// ---- terminate -------------------------------------------------------------

std::optional<TerminateView> TerminateView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    TerminateView view;
    view.reason = c.str();
    view.fined_count = c.u64();
    if (!c.ok() || view.fined_count > kSanityCap) return std::nullopt;
    view.fined = c;
    for (std::uint64_t i = 0; i < view.fined_count; ++i) c.str();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const TerminateBody& body) noexcept {
    std::size_t total = str_size(body.reason) + 8;
    for (const auto& id : body.fined) total += str_size(id);
    return total;
}

void encode(const TerminateBody& body, FlatWriter& w) noexcept {
    w.str(body.reason);
    w.u64(body.fined.size());
    for (const auto& id : body.fined) w.str(id);
}

// ---- exclude ---------------------------------------------------------------

std::optional<ExcludeView> ExcludeView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "exclude") return std::nullopt;
    ExcludeView view;
    view.job_id = c.u64();
    view.excluded_count = c.u64();
    if (!c.ok() || view.excluded_count > kSanityCap) return std::nullopt;
    view.excluded = c;
    for (std::uint64_t i = 0; i < view.excluded_count; ++i) c.str();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const ExcludeBody& body) noexcept {
    std::size_t total = str_size("exclude") + 8 + 8;
    for (const auto& name : body.excluded) total += str_size(name);
    return total;
}

void encode(const ExcludeBody& body, FlatWriter& w) noexcept {
    w.str("exclude");
    w.u64(body.job_id);
    w.u64(body.excluded.size());
    for (const auto& name : body.excluded) w.str(name);
}

// ---- realloc ---------------------------------------------------------------

std::optional<ReallocView> ReallocView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "realloc") return std::nullopt;
    ReallocView view;
    view.job_id = c.u64();
    view.dead = c.str();
    view.dead_final = c.u64();
    view.extra_count = c.u64();
    if (!c.ok() || view.extra_count > kSanityCap) return std::nullopt;
    view.extras = c;
    for (std::uint64_t i = 0; i < view.extra_count; ++i) {
        c.str();
        c.u64();
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const ReallocBody& body) noexcept {
    std::size_t total = str_size("realloc") + 8 + str_size(body.dead) + 8 + 8;
    for (const auto& [name, count] : body.extras) total += str_size(name) + 8;
    return total;
}

void encode(const ReallocBody& body, FlatWriter& w) noexcept {
    w.str("realloc");
    w.u64(body.job_id);
    w.str(body.dead);
    w.u64(body.dead_final);
    w.u64(body.extras.size());
    for (const auto& [name, count] : body.extras) {
        w.str(name);
        w.u64(count);
    }
}

}  // namespace dlsbl::protocol::wire

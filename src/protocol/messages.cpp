#include "protocol/messages.hpp"

#include <stdexcept>

namespace dlsbl::protocol {

namespace {

// Shared guard: every deserializer catches reader underflow and returns
// nullopt so malformed wire bytes can never throw into protocol logic.
template <typename Fn>
auto parse_guard(Fn&& fn) -> decltype(fn()) {
    try {
        return fn();
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

// BlockBatch layout: u64 n, n × (u64 id, 32-byte payload digest), u64 s,
// s × 32-byte sibling — inline, no length prefix.
void write_batch(util::ByteWriter& w, const BlockBatch& batch) {
    w.u64(batch.entries.size());
    for (const auto& entry : batch.entries) {
        w.u64(entry.id);
        w.raw(entry.payload_digest);
    }
    w.u64(batch.proof.size());
    for (const auto& sibling : batch.proof) w.raw(sibling);
}

void read_digest(util::ByteReader& r, crypto::Digest& d) {
    for (auto& byte : d) byte = r.u8();
}

std::optional<BlockBatch> read_batch(util::ByteReader& r) {
    BlockBatch batch;
    const std::uint64_t n = r.u64();
    if (n > 1 << 20 || r.remaining() < n * 40) return std::nullopt;
    batch.entries.resize(n);
    for (auto& entry : batch.entries) {
        entry.id = r.u64();
        read_digest(r, entry.payload_digest);
    }
    const std::uint64_t s = r.u64();
    if (s > 1 << 20 || r.remaining() < s * 32) return std::nullopt;
    batch.proof.resize(s);
    for (auto& sibling : batch.proof) read_digest(r, sibling);
    return batch;
}

void write_signed(util::ByteWriter& w, const crypto::SignedMessage& msg) {
    w.bytes(msg.serialize());
}

std::optional<crypto::SignedMessage> read_signed(util::ByteReader& r) {
    return crypto::SignedMessage::deserialize(r.bytes());
}

}  // namespace

util::Bytes BidBody::serialize() const {
    util::ByteWriter w;
    w.str("bid");
    w.u64(job_id);
    w.str(processor);
    w.f64(bid);
    return w.take();
}

std::optional<BidBody> BidBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<BidBody> {
        util::ByteReader r(data);
        if (r.str() != "bid") return std::nullopt;
        BidBody body;
        body.job_id = r.u64();
        body.processor = r.str();
        body.bid = r.f64();
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes BlockBatch::serialize() const {
    util::ByteWriter w;
    write_batch(w, *this);
    return w.take();
}

std::optional<BlockBatch> BlockBatch::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<BlockBatch> {
        util::ByteReader r(data);
        auto batch = read_batch(r);
        if (!batch || !r.exhausted()) return std::nullopt;
        return batch;
    });
}

util::Bytes LoadBatch::serialize() const {
    util::ByteWriter w;
    w.str(origin);
    write_batch(w, blocks);
    return w.take();
}

std::optional<LoadBatch> LoadBatch::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<LoadBatch> {
        util::ByteReader r(data);
        LoadBatch batch;
        batch.origin = r.str();
        auto blocks = read_batch(r);
        if (!blocks || !r.exhausted()) return std::nullopt;
        batch.blocks = std::move(*blocks);
        return batch;
    });
}

util::Bytes DoubleBidEvidence::serialize() const {
    util::ByteWriter w;
    w.str(accused);
    write_signed(w, first);
    write_signed(w, second);
    return w.take();
}

std::optional<DoubleBidEvidence> DoubleBidEvidence::deserialize(
    std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<DoubleBidEvidence> {
        util::ByteReader r(data);
        DoubleBidEvidence evidence;
        evidence.accused = r.str();
        auto first = read_signed(r);
        auto second = read_signed(r);
        if (!first || !second || !r.exhausted()) return std::nullopt;
        evidence.first = std::move(*first);
        evidence.second = std::move(*second);
        return evidence;
    });
}

util::Bytes AllocComplaintBody::serialize() const {
    util::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.str(complainant);
    w.u64(expected_blocks);
    w.u64(received_blocks);
    w.u64(held_batches.size());
    for (const auto& batch : held_batches) write_batch(w, batch);
    return w.take();
}

std::optional<AllocComplaintBody> AllocComplaintBody::deserialize(
    std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<AllocComplaintBody> {
        util::ByteReader r(data);
        AllocComplaintBody body;
        const std::uint8_t kind = r.u8();
        if (kind < 1 || kind > 3) return std::nullopt;
        body.kind = static_cast<AllocComplaintKind>(kind);
        body.complainant = r.str();
        body.expected_blocks = r.u64();
        body.received_blocks = r.u64();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        for (std::uint64_t i = 0; i < n; ++i) {
            auto batch = read_batch(r);
            if (!batch) return std::nullopt;
            body.held_batches.push_back(std::move(*batch));
        }
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes BidVectorBody::serialize() const {
    util::ByteWriter w;
    w.str(submitter);
    w.u64(bids.size());
    for (const auto& bid : bids) write_signed(w, bid);
    return w.take();
}

std::optional<BidVectorBody> BidVectorBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<BidVectorBody> {
        util::ByteReader r(data);
        BidVectorBody body;
        body.submitter = r.str();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.bids.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            auto bid = read_signed(r);
            if (!bid) return std::nullopt;
            body.bids.push_back(std::move(*bid));
        }
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes MediateRequestBody::serialize() const {
    util::ByteWriter w;
    w.str(beneficiary);
    w.u64(block_ids.size());
    for (std::uint64_t id : block_ids) w.u64(id);
    return w.take();
}

std::optional<MediateRequestBody> MediateRequestBody::deserialize(
    std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<MediateRequestBody> {
        util::ByteReader r(data);
        MediateRequestBody body;
        body.beneficiary = r.str();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.block_ids.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) body.block_ids.push_back(r.u64());
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes MeterVectorBody::serialize() const {
    util::ByteWriter w;
    w.str("meters");
    w.u64(job_id);
    w.u64(phis.size());
    for (const auto& [processor, phi] : phis) {
        w.str(processor);
        w.f64(phi);
    }
    return w.take();
}

std::optional<MeterVectorBody> MeterVectorBody::deserialize(
    std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<MeterVectorBody> {
        util::ByteReader r(data);
        if (r.str() != "meters") return std::nullopt;
        MeterVectorBody body;
        body.job_id = r.u64();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.phis.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string processor = r.str();
            const double phi = r.f64();
            body.phis.emplace_back(std::move(processor), phi);
        }
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes PaymentBody::serialize() const {
    util::ByteWriter w;
    w.str("payments");
    w.u64(job_id);
    w.str(processor);
    w.u64(payments.size());
    for (double q : payments) w.f64(q);
    return w.take();
}

std::optional<PaymentBody> PaymentBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<PaymentBody> {
        util::ByteReader r(data);
        if (r.str() != "payments") return std::nullopt;
        PaymentBody body;
        body.job_id = r.u64();
        body.processor = r.str();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.payments.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) body.payments.push_back(r.f64());
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes TerminateBody::serialize() const {
    util::ByteWriter w;
    w.str(reason);
    w.u64(fined.size());
    for (const auto& id : fined) w.str(id);
    return w.take();
}

std::optional<TerminateBody> TerminateBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<TerminateBody> {
        util::ByteReader r(data);
        TerminateBody body;
        body.reason = r.str();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.fined.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) body.fined.push_back(r.str());
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes ExcludeBody::serialize() const {
    util::ByteWriter w;
    w.str("exclude");
    w.u64(job_id);
    w.u64(excluded.size());
    for (const auto& name : excluded) w.str(name);
    return w.take();
}

std::optional<ExcludeBody> ExcludeBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<ExcludeBody> {
        util::ByteReader r(data);
        if (r.str() != "exclude") return std::nullopt;
        ExcludeBody body;
        body.job_id = r.u64();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.excluded.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) body.excluded.push_back(r.str());
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

util::Bytes ReallocBody::serialize() const {
    util::ByteWriter w;
    w.str("realloc");
    w.u64(job_id);
    w.str(dead);
    w.u64(dead_final);
    w.u64(extras.size());
    for (const auto& [name, count] : extras) {
        w.str(name);
        w.u64(count);
    }
    return w.take();
}

std::optional<ReallocBody> ReallocBody::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<ReallocBody> {
        util::ByteReader r(data);
        if (r.str() != "realloc") return std::nullopt;
        ReallocBody body;
        body.job_id = r.u64();
        body.dead = r.str();
        body.dead_final = r.u64();
        const std::uint64_t n = r.u64();
        if (n > 1 << 20) return std::nullopt;
        body.extras.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string name = r.str();
            const std::uint64_t count = r.u64();
            body.extras.emplace_back(std::move(name), count);
        }
        if (!r.exhausted()) return std::nullopt;
        return body;
    });
}

}  // namespace dlsbl::protocol

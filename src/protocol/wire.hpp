// Zero-copy flat wire codec for protocol messages.
//
// The byte FORMAT is exactly the canonical ByteWriter encoding in
// protocol/messages.cpp — those are the bytes that get signed, so the codec
// must never diverge (the fuzz suite pins flat_encode(x) == x.serialize()
// and view-parse == legacy deserialize on every body). What changes is the
// allocation profile:
//
//   * decode: a non-throwing bounds-checked Cursor yields string_view /
//     span views straight over the received payload — no nested Bytes
//     copies, no per-field heap traffic;
//   * encode: encoded_size() computes the exact output length up front and
//     FlatWriter serializes into one caller-owned buffer — one allocation
//     per message instead of ByteWriter growth plus one allocation per
//     nested block/signature.
//
// Idiom after the fixed POD buffers of SNIPPETS.md #3 (btdht): fixed
// layouts, bounds checks at the edge, views inward. Views borrow the
// input span; they are valid only while the underlying buffer lives.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "crypto/pki.hpp"
#include "protocol/blocks.hpp"
#include "protocol/messages.hpp"
#include "util/bytes.hpp"
#include "util/frame.hpp"

namespace dlsbl::protocol::wire {

// ---- cursor ----------------------------------------------------------------

// Sequential reader over a received span. Out-of-bounds reads latch the
// error flag and return zeros/empty views instead of throwing, so decoders
// stay allocation- and exception-free on the hot path.
class Cursor {
 public:
    explicit Cursor(std::span<const std::uint8_t> data) noexcept : data_(data) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

    std::uint8_t u8() noexcept {
        const auto v = take(1);
        return v.empty() ? 0 : v[0];
    }
    std::uint32_t u32() noexcept {
        const auto b = take(4);
        if (b.size() != 4) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }
    std::uint64_t u64() noexcept {
        const auto b = take(8);
        if (b.size() != 8) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }
    double f64() noexcept {
        const std::uint64_t bits = u64();
        double v = 0.0;
        static_assert(sizeof(v) == sizeof(bits));
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    // Length-prefixed string: a view over the input bytes.
    std::string_view str() noexcept {
        const std::uint64_t n = u64();
        const auto b = take(n);
        return {reinterpret_cast<const char*>(b.data()), b.size()};
    }
    // Length-prefixed byte field: a view over the input bytes.
    std::span<const std::uint8_t> bytes() noexcept { return take(u64()); }
    std::span<const std::uint8_t> raw(std::size_t n) noexcept { return take(n); }

 private:
    std::span<const std::uint8_t> take(std::size_t n) noexcept {
        if (!ok_ || n > data_.size() - pos_) {
            ok_ = false;
            return {};
        }
        const auto view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ---- flat writer -----------------------------------------------------------

// Serializer into a caller-owned buffer that was pre-sized by the matching
// encoded_size() computation. Overflow latches `ok()` false (and stops
// writing) rather than running past the buffer.
class FlatWriter {
 public:
    explicit FlatWriter(std::span<std::uint8_t> out) noexcept : out_(out) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] std::size_t written() const noexcept { return pos_; }
    [[nodiscard]] bool full() const noexcept { return ok_ && pos_ == out_.size(); }

    void u8(std::uint8_t v) noexcept {
        if (auto* p = claim(1)) p[0] = v;
    }
    void u32(std::uint32_t v) noexcept {
        if (auto* p = claim(4)) {
            for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }
    void u64(std::uint64_t v) noexcept {
        if (auto* p = claim(8)) {
            for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }
    void f64(double v) noexcept {
        std::uint64_t bits = 0;
        static_assert(sizeof(v) == sizeof(bits));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void str(std::string_view s) noexcept {
        u64(s.size());
        if (auto* p = claim(s.size())) std::memcpy(p, s.data(), s.size());
    }
    void bytes(std::span<const std::uint8_t> b) noexcept {
        u64(b.size());
        raw(b);
    }
    void raw(std::span<const std::uint8_t> b) noexcept {
        // An empty field's data() may be null, which memcpy must never see.
        if (auto* p = claim(b.size()); p != nullptr && !b.empty()) {
            std::memcpy(p, b.data(), b.size());
        }
    }

 private:
    std::uint8_t* claim(std::size_t n) noexcept {
        if (!ok_ || n > out_.size() - pos_) {
            ok_ = false;
            return nullptr;
        }
        auto* p = out_.data() + pos_;
        pos_ += n;
        return n == 0 ? out_.data() : p;  // non-null marker for zero-size writes
    }

    std::span<std::uint8_t> out_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// Field-size helpers for encoded_size() computations.
[[nodiscard]] constexpr std::size_t str_size(std::string_view s) noexcept {
    return 8 + s.size();
}
[[nodiscard]] constexpr std::size_t bytes_size(std::size_t payload) noexcept {
    return 8 + payload;
}

// ---- views -----------------------------------------------------------------
//
// One view struct per wire body, parsed with zero copies. parse() returns
// nullopt exactly when the legacy deserializer would (same caps, same
// trailing-byte rejection), which the fuzz suite asserts.

struct SignedMessageView {
    std::string_view signer;
    std::span<const std::uint8_t> payload;
    std::span<const std::uint8_t> signature;

    static std::optional<SignedMessageView> parse(std::span<const std::uint8_t> data);
    // Owning copy, for the cold paths that store envelopes (bid vectors,
    // dispute evidence).
    [[nodiscard]] crypto::SignedMessage to_owned() const;
    [[nodiscard]] bool verify(const crypto::Pki& pki) const {
        return pki.is_registered(signer) && pki.verify(signer, payload, signature);
    }
};
[[nodiscard]] std::size_t encoded_size(const crypto::SignedMessage& msg) noexcept;
void encode(const crypto::SignedMessage& msg, FlatWriter& w) noexcept;
// The envelope encoder the signing path uses: serializes
// (signer, payload, signature) without materializing a SignedMessage.
[[nodiscard]] util::Bytes flat_signed(std::string_view signer,
                                      std::span<const std::uint8_t> payload,
                                      std::span<const std::uint8_t> signature);

// A signed envelope kept by reference to the frame it arrived in: the
// view parses that frame's own bytes, and holding the frame keeps them
// alive and unchanged. The only way to build one is parse(), so the view
// and the frame cannot come apart. Copies share the frame.
class SignedFrame {
 public:
    static std::optional<SignedFrame> parse(util::Frame frame);

    [[nodiscard]] const util::Frame& frame() const noexcept { return frame_; }
    [[nodiscard]] const SignedMessageView& view() const noexcept { return view_; }
    // The Pki request for this envelope, signed by `signer` (which must equal
    // view().signer and outlive the request), with the frame's key slot.
    [[nodiscard]] crypto::Pki::VerifyRequest verify_request(
        const crypto::Identity& signer) const noexcept {
        return {&signer, view_.payload, view_.signature, frame_.key_slot()};
    }

 private:
    SignedFrame(util::Frame frame, const SignedMessageView& view) noexcept
        : frame_(std::move(frame)), view_(view) {}

    util::Frame frame_;
    SignedMessageView view_;
};

struct BidView {
    std::uint64_t job_id = 0;
    std::string_view processor;
    double bid = 0.0;

    static std::optional<BidView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const BidBody& body) noexcept;
void encode(const BidBody& body, FlatWriter& w) noexcept;

// One block batch record at the cursor — the layout inside LoadBatch and
// complaint bodies: u64 n, n × (u64 id, 32-byte payload digest), u64 s,
// s × 32-byte multiproof sibling. No length prefix.
struct BlockBatchView {
    std::uint64_t entry_count = 0;
    std::span<const std::uint8_t> entries;  // entry_count * 40 bytes
    std::span<const std::uint8_t> proof;    // sibling count * 32 bytes

    // Owning copy: receivers keep authentic batches as complaint evidence.
    [[nodiscard]] BlockBatch to_owned() const;

    static std::optional<BlockBatchView> next(Cursor& c);
};
[[nodiscard]] std::size_t encoded_size(const BlockBatch& batch) noexcept;
void encode(const BlockBatch& batch, FlatWriter& w) noexcept;

struct LoadBatchView {
    std::string_view origin;
    BlockBatchView blocks;

    static std::optional<LoadBatchView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const LoadBatch& batch) noexcept;
void encode(const LoadBatch& batch, FlatWriter& w) noexcept;

struct DoubleBidEvidenceView {
    std::string_view accused;
    SignedMessageView first;
    SignedMessageView second;

    static std::optional<DoubleBidEvidenceView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const DoubleBidEvidence& evidence) noexcept;
void encode(const DoubleBidEvidence& evidence, FlatWriter& w) noexcept;

struct AllocComplaintView {
    AllocComplaintKind kind = AllocComplaintKind::kShortShipped;
    std::string_view complainant;
    std::uint64_t expected_blocks = 0;
    std::uint64_t received_blocks = 0;
    std::uint64_t held_count = 0;
    Cursor held{std::span<const std::uint8_t>{}};  // iterate with BlockBatchView::next

    static std::optional<AllocComplaintView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const AllocComplaintBody& body) noexcept;
void encode(const AllocComplaintBody& body, FlatWriter& w) noexcept;

struct BidVectorView {
    std::string_view submitter;
    std::uint64_t bid_count = 0;
    Cursor bids{std::span<const std::uint8_t>{}};  // iterate with next_signed

    // One length-prefixed signed envelope at the cursor.
    static std::optional<SignedMessageView> next_signed(Cursor& c);
    static std::optional<BidVectorView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const BidVectorBody& body) noexcept;
void encode(const BidVectorBody& body, FlatWriter& w) noexcept;

struct MediateRequestView {
    std::string_view beneficiary;
    std::uint64_t id_count = 0;
    Cursor ids{std::span<const std::uint8_t>{}};  // id_count u64s

    static std::optional<MediateRequestView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const MediateRequestBody& body) noexcept;
void encode(const MediateRequestBody& body, FlatWriter& w) noexcept;

struct MeterVectorView {
    std::uint64_t job_id = 0;
    std::uint64_t phi_count = 0;
    Cursor phis{std::span<const std::uint8_t>{}};  // phi_count (str, f64) pairs

    static std::optional<MeterVectorView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const MeterVectorBody& body) noexcept;
void encode(const MeterVectorBody& body, FlatWriter& w) noexcept;

struct PaymentView {
    std::uint64_t job_id = 0;
    std::string_view processor;
    std::uint64_t payment_count = 0;
    Cursor payments{std::span<const std::uint8_t>{}};  // payment_count f64s

    static std::optional<PaymentView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const PaymentBody& body) noexcept;
void encode(const PaymentBody& body, FlatWriter& w) noexcept;

struct TerminateView {
    std::string_view reason;
    std::uint64_t fined_count = 0;
    Cursor fined{std::span<const std::uint8_t>{}};  // fined_count strings

    static std::optional<TerminateView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const TerminateBody& body) noexcept;
void encode(const TerminateBody& body, FlatWriter& w) noexcept;

struct ExcludeView {
    std::uint64_t job_id = 0;
    std::uint64_t excluded_count = 0;
    Cursor excluded{std::span<const std::uint8_t>{}};  // excluded_count strings

    static std::optional<ExcludeView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const ExcludeBody& body) noexcept;
void encode(const ExcludeBody& body, FlatWriter& w) noexcept;

struct ReallocView {
    std::uint64_t job_id = 0;
    std::string_view dead;
    std::uint64_t dead_final = 0;
    std::uint64_t extra_count = 0;
    Cursor extras{std::span<const std::uint8_t>{}};  // extra_count (str, u64) pairs

    static std::optional<ReallocView> parse(std::span<const std::uint8_t> data);
};
[[nodiscard]] std::size_t encoded_size(const ReallocBody& body) noexcept;
void encode(const ReallocBody& body, FlatWriter& w) noexcept;

// ---- convenience -----------------------------------------------------------

// One-allocation encode: exact-size buffer, flat serialization. Bytes are
// identical to body.serialize() for every body type above.
template <typename Body>
[[nodiscard]] util::Bytes flat_encode(const Body& body) {
    util::Bytes out(encoded_size(body));
    FlatWriter w(std::span<std::uint8_t>(out.data(), out.size()));
    encode(body, w);
    return out;
}

}  // namespace dlsbl::protocol::wire

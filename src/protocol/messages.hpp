// Wire messages of the DLS-BL-NCP protocol (§4).
//
// Every body type has a canonical byte encoding (util::ByteWriter) — the
// exact bytes that get signed — and a tolerant parser that returns nullopt
// on malformed input (malformed messages are discarded per §4 Bidding:
// "If the message fails verification, it is discarded").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pki.hpp"
#include "protocol/blocks.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol {

enum class MsgType : std::uint32_t {
    kBid = 1,             // broadcast: S_Pi(b_i, P_i)
    kLoadDelivery,        // LO -> P_i: batch of authenticated blocks (bus transfer)
    kAccuseDoubleBid,     // P_j -> referee: two signed bids from the same sender
    kAllocComplaint,      // P_i -> referee: wrong assignment (over/short/integrity)
    kBidVectorRequest,    // referee -> {LO, complainant}
    kBidVectorResponse,   // node -> referee: the m signed bids it holds
    kMediateRequest,      // referee -> LO: transmit missing blocks via me
    kMediateBlocks,       // LO -> referee: one batch over the requested blocks
    kMediateRefuse,       // LO -> referee: refusal (finable)
    kMeterBroadcast,      // referee -> all: (φ_1, ..., φ_m)
    kPaymentVector,       // P_i -> referee: S_Pi(P_i, Q)
    kTerminate,           // referee -> all: protocol aborted, fines levied
    kSettled,             // referee -> all: payments forwarded to the user
    // Churn extensions (DESIGN.md "Churn model"): not in the paper, which
    // assumes a static bus. Both are referee broadcasts, unsigned like
    // kMeterBroadcast (nodes trust `from == referee`).
    kExclude,             // referee -> all: bid-deadline exclusions
    kRealloc,             // referee -> all: dead processor's remaining blocks
                          //                 redistributed over the survivors
};

constexpr std::uint32_t to_wire(MsgType type) noexcept {
    return static_cast<std::uint32_t>(type);
}

// ---- bodies ---------------------------------------------------------------

// (b_i, P_i): the signed content of a bid broadcast.
struct BidBody {
    std::uint64_t job_id = 0;
    std::string processor;
    double bid = 0.0;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<BidBody> deserialize(std::span<const std::uint8_t> data);
};

// A batch of blocks moving over the bus (a load delivery, or the LO's
// answer to a mediation request).
struct LoadBatch {
    std::string origin;
    BlockBatch blocks;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<LoadBatch> deserialize(std::span<const std::uint8_t> data);
};

// Evidence of offense (i): two authenticated, different bid messages from
// the same processor.
struct DoubleBidEvidence {
    std::string accused;
    crypto::SignedMessage first;
    crypto::SignedMessage second;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<DoubleBidEvidence> deserialize(std::span<const std::uint8_t> data);
};

enum class AllocComplaintKind : std::uint8_t {
    kOverShipped = 1,   // α̃_i > α_i: complainant submits its blocks as evidence
    kShortShipped = 2,  // α̃_i < α_i
    kBadIntegrity = 3,  // blocks received but integrity check failed
};

struct AllocComplaintBody {
    AllocComplaintKind kind = AllocComplaintKind::kShortShipped;
    std::string complainant;
    std::uint64_t expected_blocks = 0;
    std::uint64_t received_blocks = 0;
    // For kOverShipped / kBadIntegrity: every batch the complainant
    // accepted, forwarded verbatim (entries and multiproof).
    std::vector<BlockBatch> held_batches;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<AllocComplaintBody> deserialize(std::span<const std::uint8_t> data);
};

// The full vector of signed bids a node holds, sent on referee request.
struct BidVectorBody {
    std::string submitter;
    std::vector<crypto::SignedMessage> bids;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<BidVectorBody> deserialize(std::span<const std::uint8_t> data);
};

struct MediateRequestBody {
    std::string beneficiary;              // the under-supplied processor
    std::vector<std::uint64_t> block_ids; // what the referee expects

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<MediateRequestBody> deserialize(std::span<const std::uint8_t> data);
};

struct MeterVectorBody {
    std::uint64_t job_id = 0;
    std::vector<std::pair<std::string, double>> phis;  // processor -> φ

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<MeterVectorBody> deserialize(std::span<const std::uint8_t> data);
};

// (P_i, Q): the signed content of a payment-vector submission.
struct PaymentBody {
    std::uint64_t job_id = 0;
    std::string processor;
    std::vector<double> payments;  // Q_1..Q_m in processor-index order

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<PaymentBody> deserialize(std::span<const std::uint8_t> data);
};

struct TerminateBody {
    std::string reason;
    std::vector<std::string> fined;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<TerminateBody> deserialize(std::span<const std::uint8_t> data);
};

// Processors whose bids were still missing at the churn bid deadline; the
// round proceeds over the remaining bidders.
struct ExcludeBody {
    std::uint64_t job_id = 0;
    std::vector<std::string> excluded;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<ExcludeBody> deserialize(std::span<const std::uint8_t> data);
};

// A dead processor's undone blocks, reassigned over the survivors via the
// NCP-NFE closed form. `dead_final` is how many blocks the dead processor's
// meter proved before the crash; `extras` lists (survivor, extra blocks) in
// processor-index order — the load origin re-ships exactly these.
struct ReallocBody {
    std::uint64_t job_id = 0;
    std::string dead;
    std::uint64_t dead_final = 0;
    std::vector<std::pair<std::string, std::uint64_t>> extras;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<ReallocBody> deserialize(std::span<const std::uint8_t> data);
};

}  // namespace dlsbl::protocol

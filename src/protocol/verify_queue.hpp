// Deferred signature verification for the non-blocking message paths.
//
// §4's bidding and payment rounds verify one envelope per arrival, but no
// observable action (accusation, phase change, fine, settlement) depends
// on a verdict until a round boundary: the first m-1 bids just accumulate.
// VerifyQueue exploits that window — arrivals are parked unverified and
// flushed through Pki::verify_many, which amortizes WOTS chain work
// across the whole batch (crypto/batch_verify.hpp).
//
// Correctness contract: the flush replays the queued envelopes in arrival
// order against Pki::verify_many, which is itself observably identical to
// sequential Pki::verify calls (verdicts, cache contents, hit/miss stats).
// Callers must flush before ANY action whose bytes could depend on a
// verdict — the endpoint cores do so at every handler entry that reads
// verdict-derived state, plus the conservative structural triggers
// (possible bid conflict, possibly-complete round). Under that discipline
// a run's artifacts are byte-identical at any batch limit; limit <= 1
// degenerates to eager per-arrival verification.
//
// Items hold the delivered frame itself, not a copy, and each request
// names the frame's key slot: a broadcast bid that reaches m queues is
// stored once and its verify-cache key is hashed once.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pki.hpp"
#include "protocol/wire.hpp"

namespace dlsbl::protocol {

class VerifyQueue {
 public:
    struct Item {
        std::size_t sender;           // transport-level sender's processor id
        wire::SignedFrame envelope;   // the delivered frame, shared
    };

    // `signers[id]` is the identity of sender id (RunContext::processor_names)
    // and must outlive the queue.
    VerifyQueue(std::size_t batch_limit, std::span<const std::string> signers)
        : limit_(batch_limit == 0 ? 1 : batch_limit),
          signers_(signers),
          queued_(signers.size(), 0) {}

    [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
    [[nodiscard]] bool full() const noexcept { return items_.size() >= limit_; }

    // Any queued envelope from this sender? O(1).
    [[nodiscard]] bool has_sender(std::size_t sender) const noexcept {
        return queued_[sender] != 0;
    }

    // Would this payload conflict with a queued envelope from the same
    // sender? (Offense-(i) evidence might be emitted during the replay, so
    // the caller must flush at this arrival, matching the eager schedule.)
    [[nodiscard]] bool conflicts(std::size_t sender,
                                 std::span<const std::uint8_t> payload) const noexcept {
        if (!has_sender(sender)) return false;
        for (const auto& item : items_) {
            if (item.sender != sender) continue;
            if (!std::ranges::equal(item.envelope.view().payload, payload)) return true;
        }
        return false;
    }

    // Queues `envelope`, whose signer must be signers[sender] (the cores
    // drop any envelope not signed by its transport-level sender before
    // queueing it). Returns true when it is the sender's only queued
    // envelope, i.e. the queue newly covers that sender.
    bool push(std::size_t sender, wire::SignedFrame envelope) {
        assert(envelope.view().signer == signers_[sender]);
        items_.push_back({sender, std::move(envelope)});
        return queued_[sender]++ == 0;
    }

    // Verifies everything queued (one Pki::verify_many batch) and invokes
    // apply(sender, envelope, verified) per item in arrival order. The
    // batch leaves the queue before the first apply(); reentrant pushes
    // during apply() land in the next batch.
    template <typename Apply>
    void flush(const crypto::Pki& pki, Apply&& apply) {
        if (items_.empty()) return;
        std::vector<Item> batch;
        batch.swap(items_);
        for (const auto& item : batch) queued_[item.sender] = 0;
        std::vector<crypto::Pki::VerifyRequest> requests;
        requests.reserve(batch.size());
        for (const auto& item : batch) {
            requests.push_back(item.envelope.verify_request(signers_[item.sender]));
        }
        // vector<bool> has no data(); byte-backed verdicts instead.
        std::vector<std::uint8_t> verdicts(batch.size());
        static_assert(sizeof(bool) == 1);
        pki.verify_many(requests, reinterpret_cast<bool*>(verdicts.data()));
        for (std::size_t i = 0; i < batch.size(); ++i) {
            apply(batch[i].sender, batch[i].envelope, verdicts[i] != 0);
        }
    }

 private:
    std::size_t limit_;
    std::span<const std::string> signers_;
    std::vector<Item> items_;
    std::vector<std::uint32_t> queued_;  // envelopes queued per sender id
};

}  // namespace dlsbl::protocol

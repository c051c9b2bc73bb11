// An immutable, refcounted byte frame: one message, from its send to its
// last reader.
//
// A broadcast reaches every other participant, and each may keep what it
// received (verify queues, bid tables, retransmission copies). A Frame is
// the one copy they all share: copying a Frame copies a reference, never
// the bytes, and no holder can change them. The bytes live until the last
// holder lets go, so a view parsed from bytes() stays valid exactly as long
// as the frame it was parsed from is held.
//
// A frame has one mutable cell, its VerifyKeySlot, which memoizes a
// function of the immutable bytes (see below).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "util/bytes.hpp"

namespace dlsbl::crypto {
class Pki;  // the one writer of a VerifyKeySlot
}  // namespace dlsbl::crypto

namespace dlsbl::util {

// The verify-cache key of the signed envelope a frame carries. Empty until
// crypto::Pki::verify_many first verifies a request that names the slot;
// the Pki then stores the key of that request's (signer, payload,
// signature), which is the frame's own parse. The bytes never change, so
// the key holds for every later reader of the frame. Readable by anyone,
// written only by the Pki. A frame belongs to one protocol run, and a run
// executes on one thread, so the slot takes no lock.
class VerifyKeySlot {
 public:
    [[nodiscard]] bool filled() const noexcept { return filled_; }

 private:
    friend class crypto::Pki;
    std::array<std::uint8_t, 32> key_{};
    bool filled_ = false;
};

class Frame {
 public:
    // The empty frame: no bytes, no slot.
    Frame() = default;
    // Takes ownership of `bytes`. Implicit from an rvalue only, so handing a
    // freshly encoded buffer to a transport moves it, and a copy of an
    // existing buffer has to be spelled out.
    Frame(Bytes&& bytes)  // NOLINT(google-explicit-constructor) moves, never copies
        : body_(std::make_shared<const Body>(std::move(bytes))) {}

    [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
        if (!body_) return {};
        return body_->bytes;
    }
    [[nodiscard]] std::size_t size() const noexcept { return body_ ? body_->bytes.size() : 0; }

    // The frame's memo cell; null for the empty frame.
    [[nodiscard]] VerifyKeySlot* key_slot() const noexcept {
        return body_ ? &body_->key_slot : nullptr;
    }

 private:
    struct Body {
        explicit Body(Bytes&& b) noexcept : bytes(std::move(b)) {}
        const Bytes bytes;
        mutable VerifyKeySlot key_slot;
    };
    std::shared_ptr<const Body> body_;
};

}  // namespace dlsbl::util

// HMAC-SHA256 (RFC 2104), verified against the RFC 4231 test vectors.
//
// The PRF of the signature stack: it derives the Merkle signature scheme's
// per-leaf seeds from one master seed. WOTS keygen computes the same HMAC
// for each leaf's chain secrets, 16 lanes at a time on the SoA engine
// (crypto/wots.cpp).
#pragma once

#include <span>

#include "crypto/sha256.hpp"

namespace dlsbl::crypto {

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message);

// Fixed-key HMAC with precomputed pad states.
//
// The constructor absorbs the ipad/opad blocks once; each mac() then costs
// only the message blocks plus the single outer digest block — half the
// compressions of the free function when the key is reused, and zero heap
// allocation throughout. This is the shape of every PRF call in the
// signature stack (one master seed, thousands of derivations).
class HmacSha256 {
 public:
    explicit HmacSha256(std::span<const std::uint8_t> key) noexcept;

    [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const noexcept;

 private:
    Sha256 inner_;  // state after absorbing key ^ ipad
    Sha256 outer_;  // state after absorbing key ^ opad
};

}  // namespace dlsbl::crypto

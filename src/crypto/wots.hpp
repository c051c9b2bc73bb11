// Winternitz one-time signatures (WOTS, w = 16).
//
// The one-time scheme behind every MSS leaf (crypto/mss.hpp), with
// 67 x 32 B = 2144 B signatures: each 4-bit digit of the message digest
// selects a position along a length-16 hash chain; a base-16 checksum over
// the complements prevents digit-increase forgeries. Built purely on
// SHA-256.
//
// Chain c of a key starts at the secret PRF(seed, c) = HMAC-SHA256(seed,
// str("wots-chain") || u64(c)) and the public key is the hash of the 67
// chain ends. Keygen runs up to kBatchLeaves keys at a time through the
// 16-lane SHA-256 engine (crypto/sha256_soa.hpp): the secrets, their
// chains and the public-key hashes never leave the engine's lane layout.
// A single key is a batch of one, and sign() takes its secrets from the
// same batched PRF, so the secrets are derived in one place; it steps them
// through the lane-refill chain scheduler batch verification uses.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace dlsbl::crypto {

class WotsKeyPair {
 public:
    static constexpr std::size_t kDigits = 64;     // 256-bit digest, 4 bits each
    static constexpr std::size_t kChecksum = 3;    // max checksum 64*15 = 960 < 16^3
    static constexpr std::size_t kChains = kDigits + kChecksum;  // 67
    static constexpr unsigned kChainLength = 15;   // digits are 0..15

    struct Signature {
        std::array<Digest, kChains> values;

        [[nodiscard]] util::Bytes serialize() const;
        static std::optional<Signature> deserialize(std::span<const std::uint8_t> data);
    };

    // Keys one batched keygen pass builds at most: one per engine lane, so
    // a pass over 16 leaves keeps every lane busy at every chain.
    static constexpr std::size_t kBatchLeaves = 16;

    // A batch of one: byte-identical to generate() over {seed}.
    explicit WotsKeyPair(const Digest& seed);

    // The key pair of each seed, kBatchLeaves keys per batched pass; key i
    // is byte-identical to WotsKeyPair(seeds[i]).
    static std::vector<WotsKeyPair> generate(std::span<const Digest> seeds);

    [[nodiscard]] const Digest& public_key() const noexcept { return public_key_; }

    [[nodiscard]] Signature sign(std::span<const std::uint8_t> message) const;

    static bool verify(const Digest& public_key, std::span<const std::uint8_t> message,
                       const Signature& signature);

 private:
    // The 67 base-16 digits signed for a message: 64 digest digits followed
    // by the 3-digit checksum Σ(15 - d_i), big-endian.
    static std::array<unsigned, kChains> digits_for(std::span<const std::uint8_t> message);

    WotsKeyPair(const Digest& seed, const Digest& public_key)
        : seed_(seed), public_key_(public_key) {}

    Digest seed_{};
    Digest public_key_{};
};

}  // namespace dlsbl::crypto

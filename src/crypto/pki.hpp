// Public-key infrastructure and signed-message envelopes.
//
// §4 Initialization: "Each participant has a public cryptographic key set
// ... The public key is registered under the participant's identity with
// the aforementioned PKI." This module provides exactly that registry plus
// the signed envelope S_β(m) = (m, SIG_β(m)).
//
// Two interchangeable signature algorithms implement the Signer interface:
//   * MssSigner  — the real hash-based Merkle signature scheme over WOTS
//     one-time keys (default).
//   * FastSigner — HMAC-SHA256 with registry-held verification keys. It is
//     *not* publicly verifiable cryptography; it models an unforgeable
//     signing oracle and exists so the Θ(m²) communication bench can sweep
//     to hundreds of processors without paying MSS keygen. Protocol
//     logic and message layouts are identical under both.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "crypto/mss.hpp"
#include "util/frame.hpp"

namespace dlsbl::crypto {

using Identity = std::string;

// MSS tree height of a protocol signer unless the caller sets one: 2^2 = 4
// one-time keys. An honest processor signs two messages per run (its bid
// and its payment vector) and a scripted deviant at most three.
inline constexpr unsigned kDefaultMssHeight = 2;

// A participant's signing capability. Verification goes through the Pki so
// no caller ever touches another participant's private key.
class Signer {
 public:
    virtual ~Signer() = default;
    [[nodiscard]] virtual util::Bytes sign(std::span<const std::uint8_t> message) = 0;
    [[nodiscard]] virtual Digest public_key() const = 0;
    // Signatures this signer can still make: the unused one-time keys of an
    // MSS tree, unlimited (the size_t maximum) for the HMAC oracle. sign()
    // with none left throws (MssKeyPair::sign), so protocol cores ask first.
    [[nodiscard]] virtual std::size_t signatures_left() const = 0;
};

class Pki {
 public:
    using VerifyFn =
        std::function<bool(std::span<const std::uint8_t> message,
                           std::span<const std::uint8_t> signature)>;

    // Registers an identity. Re-registering an identity is a protocol
    // violation and throws. `mss_batchable` declares that `verifier` is
    // exactly MssSignature::deserialize + MssKeyPair::verify against
    // `public_key`, which lets verify_many route the entry through the
    // amortized batch engine (crypto/batch_verify.hpp) instead of the
    // opaque closure.
    void register_identity(const Identity& id, Digest public_key, VerifyFn verifier,
                           bool mss_batchable = false);

    [[nodiscard]] bool is_registered(std::string_view id) const;
    [[nodiscard]] const Digest& public_key_of(const Identity& id) const;

    // string_view id: lets zero-copy wire views verify without
    // materializing an Identity string (the entry map uses transparent
    // comparison). Semantics and cache keys are identical either way.
    [[nodiscard]] bool verify(std::string_view id, std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const;

    // One element of a verify_many batch. `signer` must outlive the call;
    // spans are borrowed, not copied.
    //
    // `key_slot` (optional) is the memo cell of the frame the request was
    // parsed from: `message` and `signature` view that frame's bytes and
    // *signer equals its signer field. The frame is immutable, so its cache
    // key never changes; verify_many hashes it on the slot's first use,
    // stores it there, and reads it back on every later request that names
    // the slot.
    struct VerifyRequest {
        const Identity* signer = nullptr;
        std::span<const std::uint8_t> message;
        std::span<const std::uint8_t> signature;
        util::VerifyKeySlot* key_slot = nullptr;
    };

    // Verifies a batch; verdicts[i] <- verify(*requests[i].signer, ...).
    // Observably identical to calling verify() sequentially in request
    // order — verdicts, cache contents, and hit/miss statistics all
    // replay the sequential algorithm exactly — but distinct uncached
    // MSS signatures are checked through the amortized batch engine, and
    // cache keys are hashed 16 at a time, once per key slot.
    void verify_many(std::span<const VerifyRequest> requests, bool* verdicts) const;

    [[nodiscard]] std::size_t participant_count() const noexcept { return entries_.size(); }

    // Verification memo cache. Hash-based signature verification is pure,
    // so (id, message, signature) determines the verdict; the referee
    // re-checks the same envelopes during dispute replays and payment
    // validation, and those repeats hit the cache instead of re-running
    // WOTS chains. Keyed by a SHA-256 digest of the length-framed
    // triple; bounded (the table is flushed when `capacity` entries are
    // reached); capacity 0 disables caching entirely.
    struct CacheStats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    [[nodiscard]] CacheStats verify_cache_stats() const;
    void set_verify_cache_capacity(std::size_t capacity);

 private:
    struct Entry {
        Digest public_key{};
        VerifyFn verifier;
        bool mss_batchable = false;
    };
    struct DigestHash {
        std::size_t operator()(const Digest& d) const noexcept {
            std::size_t v = 0;  // digest bytes are already uniform
            for (std::size_t i = 0; i < sizeof(v); ++i) {
                v |= static_cast<std::size_t>(d[i]) << (8 * i);
            }
            return v;
        }
    };
    // Behind unique_ptr so Pki stays movable despite the mutex.
    struct VerifyCache {
        mutable std::mutex mutex;
        std::unordered_map<Digest, bool, DigestHash> verdicts;
        std::size_t capacity = 8192;
        CacheStats stats;
    };

    // Transparent comparator: the string_view lookups above stay heap-free.
    std::map<Identity, Entry, std::less<>> entries_;
    std::unique_ptr<VerifyCache> cache_ = std::make_unique<VerifyCache>();
};

// Explicit values: 0 is retired, and the printed values of the other two
// (e.g. in gtest's parameter display) stay stable.
enum class SignatureAlgorithm {
    kMerkleWots = 1,  // real hash-based signatures (WOTS leaves + Merkle tree)
    kFast = 2,        // HMAC oracle; registry-verified, used for large-scale benches
};

// Creates a signer for `id`, derived deterministically from `seed`, and
// registers its verification key with `pki`. An MSS signer holds
// 2^mss_height one-time keys (ignored by kFast). keygen_jobs is forwarded
// to MssKeyPair (ignored by kFast): worker threads for leaf keygen, 0 and
// 1 = inline. Keys are identical at any job count.
std::unique_ptr<Signer> make_registered_signer(Pki& pki, const Identity& id,
                                               std::uint64_t seed,
                                               SignatureAlgorithm algorithm,
                                               unsigned mss_height = kDefaultMssHeight,
                                               std::size_t keygen_jobs = 1);

// A message plus its signature: S_β(m) in the paper's notation.
struct SignedMessage {
    Identity signer;
    util::Bytes payload;
    util::Bytes signature;

    [[nodiscard]] bool verify(const Pki& pki) const {
        return pki.is_registered(signer) && pki.verify(signer, payload, signature);
    }

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<SignedMessage> deserialize(std::span<const std::uint8_t> data);
};

SignedMessage sign_message(Signer& signer, const Identity& id, util::Bytes payload);

}  // namespace dlsbl::crypto

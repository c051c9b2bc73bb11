// Amortized verification of many hash-based signatures.
//
// The eager path (MssKeyPair::verify) processes one signature at a time:
// each WOTS chain population is advanced through the multi-lane hasher
// with per-step array-of-structs packing, and the one-time-public-key /
// cache-key streams run through the serial compression loop. For a single
// signature that is the right shape; for a referee draining a phase's
// worth of bids and meter reports it leaves most of the machine idle.
//
// mss_verify_many amortizes across signature boundaries instead:
//   * signatures are parsed as zero-copy views over the wire bytes
//     (allocation-free, same acceptance predicate as
//     MssSignature::deserialize);
//   * every WOTS chain from every signature becomes one (start, steps)
//     job; jobs are bucketed by remaining step count and advanced 16 at a
//     time through the struct-of-arrays SHA-256 engine
//     (crypto/sha256_soa.hpp) at full lane density;
//   * one-time public key rebuilds and message digests run through
//     sha256_streams, the ragged 16-stream batch hasher;
//   * Merkle authentication paths recompute level-by-level across all
//     signatures via Sha256::hash_pair_many.
//
// Verdicts are bit-identical to calling MssSignature::deserialize +
// MssKeyPair::verify per item (tests/test_crypto_batch.cpp pins this over
// honest, malformed and hostile signatures). Only throughput changes.
#pragma once

#include <cstddef>
#include <span>

#include "crypto/sha256.hpp"

namespace dlsbl::crypto {

// One signature to check: `signature` is a serialized MssSignature and
// `public_key` the registered Merkle root for the claimed signer.
struct MssVerifyItem {
    const Digest* public_key = nullptr;
    std::span<const std::uint8_t> message;
    std::span<const std::uint8_t> signature;
};

// verdicts[i] <- exactly what `MssSignature::deserialize(items[i].signature)`
// followed by `MssKeyPair::verify` would produce. Spans must stay valid for
// the duration of the call; items may alias.
void mss_verify_many(std::span<const MssVerifyItem> items, bool* verdicts);

namespace detail {

// Batch one-shot SHA-256 over `n` independent contiguous byte streams:
// out[i] = H(data[i][0..len[i])). Streams of mixed lengths are hashed 16
// at a time through the SoA engine; bit-identical to Sha256::hash per
// stream. WOTS keygen hashes its chain-end streams through it too.
void sha256_streams(const std::uint8_t* const* data, const std::size_t* len,
                    std::size_t n, Digest* out);

}  // namespace detail

}  // namespace dlsbl::crypto

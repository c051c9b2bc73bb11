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
//     job for detail::run_chain_jobs, the lane-refill chain scheduler
//     WotsKeyPair::sign shares (crypto/sha256_soa.hpp), which advances
//     them 16 at a time through the struct-of-arrays SHA-256 engine at
//     full lane density;
//   * one-time public key rebuilds and message digests run through
//     detail::sha256_streams, the ragged 16-stream batch hasher;
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

}  // namespace dlsbl::crypto

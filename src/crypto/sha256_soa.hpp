// Internal 16-wide struct-of-arrays SHA-256 engine (crypto module only).
//
// The generic multi-lane path (`Sha256Backend::compress_lanes`) keeps each
// lane's state and block in array-of-structs layout, which costs a state
// memcpy, a block memcpy and a scalar byte-swapped digest extraction per
// lane per compression — acceptable for one signature, dominant for many.
// The batch hash-chain workloads instead keep whole WOTS chain populations
// in struct-of-arrays form, where word `w` of lane `l` lives at
// `soa[16*w + l]`, and advance them through this engine. Two callers drive
// it: the batch verifier (crypto/batch_verify.hpp) and WOTS keygen
// (crypto/wots.hpp), which derives a group of leaves' chain secrets,
// chains them and hashes their public keys without leaving SoA form.
//
//   * chain16    — the hash32 chain step d <- SHA256(d), applied `steps`
//                  times to 16 independent 32-byte digests. Digest words
//                  stay in native uint32 form between steps (the output
//                  words of one step are exactly the message words of the
//                  next), so the inner loop has no byte-swaps, no state
//                  init copies and no digest extraction at all.
//   * compress16 — one compression of 16 independent states, each over its
//                  own 64-byte block (lane l reads blocks[l]). This is the
//                  engine behind the HMAC steps of keygen and batched
//                  public-key/cache-key streams.
//
// Two implementations exist: an AVX-512 kernel (sha256_soa512.cpp) holding
// all 16 lanes in zmm registers, and a fallback that routes through the
// currently selected generic backend's compress_lanes — so machines
// without AVX-512 still get their best tier, and every implementation is
// bit-identical (tests/test_crypto_batch.cpp pins equivalence).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dlsbl::crypto::detail {

inline constexpr std::size_t kSoaLanes = 16;

// SoA digest block: word w of lane l at index 16*w + l.
inline constexpr std::size_t kSoaWords = 8 * kSoaLanes;

// Lane `lane` of an SoA digest block from / to a 32-byte digest (the eight
// words big-endian, as SHA-256 reads and writes them).
inline void soa_load_lane(std::uint32_t* soa, std::size_t lane,
                          const std::uint8_t* digest) noexcept {
    for (std::size_t w = 0; w < 8; ++w) {
        const std::uint8_t* p = digest + 4 * w;
        soa[kSoaLanes * w + lane] =
            (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
            (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
    }
}

inline void soa_store_lane(const std::uint32_t* soa, std::size_t lane,
                           std::uint8_t* digest) noexcept {
    for (std::size_t w = 0; w < 8; ++w) {
        const std::uint32_t v = soa[kSoaLanes * w + lane];
        std::uint8_t* p = digest + 4 * w;
        p[0] = static_cast<std::uint8_t>(v >> 24);
        p[1] = static_cast<std::uint8_t>(v >> 16);
        p[2] = static_cast<std::uint8_t>(v >> 8);
        p[3] = static_cast<std::uint8_t>(v);
    }
}

struct Sha256SoaEngine {
    const char* name;
    // d <- SHA256(d) `steps` times for 16 independent 32-byte digests held
    // as SoA words (native uint32 values of the big-endian digest words).
    void (*chain16)(std::uint32_t* digests_soa, std::size_t steps);
    // One compression of 16 independent SoA states; lane l consumes the
    // 64-byte block at blocks[l].
    void (*compress16)(std::uint32_t* states_soa,
                       const std::uint8_t* const* blocks);
};

// AVX-512 kernel, or nullptr when compiled out / not supported by the CPU.
const Sha256SoaEngine* sha256_soa512_engine();

// Fallback routed through the active generic backend's compress_lanes.
const Sha256SoaEngine& sha256_soa_lanes_engine();

// The engine batch callers should use: the AVX-512 kernel when the CPU has
// it and the generic backend is not pinned to "scalar" (so pinned
// benchmark baselines stay honest), otherwise the lanes fallback.
const Sha256SoaEngine& sha256_soa_engine();

}  // namespace dlsbl::crypto::detail

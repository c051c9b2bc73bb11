// Internal 16-wide struct-of-arrays SHA-256 engine (crypto module only).
//
// The generic multi-lane path (`Sha256Backend::compress_lanes`) keeps each
// lane's state and block in array-of-structs layout, which costs a state
// memcpy, a block memcpy and a scalar byte-swapped digest extraction per
// lane per compression — acceptable for one signature, dominant for many.
// The bulk multi-message hashes instead keep 16 chaining states in
// struct-of-arrays form, where word `w` of lane `l` lives at
// `soa[16*w + l]`, and advance them through this engine. Every bulk hash of
// a run goes through it:
//
//   * Sha256::hash_pair_many — Merkle levels (commitment, multiproofs,
//     MSS authentication paths);
//   * sha256_streams below, and Sha256::hash_fixed_many / hash_many on top
//     of it — block payloads and leaves, Pki cache keys, message digests
//     and one-time public keys;
//   * run_chain_jobs below — WOTS signing and batch verification;
//   * WOTS keygen (crypto/wots.hpp), which derives a group of leaves' chain
//     secrets, chains them and hashes their public keys in SoA form.
//
// The eager single-signature verifier (WotsKeyPair::verify via
// Sha256::hash32_many) stays on compress_lanes: it is the comparator the
// deferred batch path is measured against.
//
//   * chain16    — the hash32 chain step d <- SHA256(d), applied `steps`
//                  times to 16 independent 32-byte digests. Digest words
//                  stay in native uint32 form between steps (the output
//                  words of one step are exactly the message words of the
//                  next), so the inner loop has no byte-swaps, no state
//                  init copies and no digest extraction at all.
//   * compress16 — one compression of 16 independent states, each over its
//                  own 64-byte block (lane l reads blocks[l]).
//
// Two implementations exist: an AVX-512 kernel (sha256_soa512.cpp) holding
// all 16 lanes in zmm registers, and a fallback that routes through the
// currently selected generic backend's compress_lanes — so machines
// without AVX-512 still get their best tier, and every implementation is
// bit-identical (tests/test_crypto_batch.cpp pins equivalence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"

namespace dlsbl::crypto::detail {

inline constexpr std::size_t kSoaLanes = 16;

// SoA digest block: word w of lane l at index 16*w + l.
inline constexpr std::size_t kSoaWords = 8 * kSoaLanes;

// Groups of fewer messages than this skip the engine and hash one at a
// time on the one-shot path (SHA-NI where present). A 16-lane pass costs
// the same at any live-lane count. On a 4-vCPU AVX-512 + SHA-NI Xeon (best
// of 31 timings, five runs) one 16-pair hash_pair_many group took
// 0.78-0.96 us against 0.13-0.15 us for one hash_pair, a crossover at
// 5.7-6.9 pairs; 16 one-block (32 B) messages crossed over at 4.7-6.0 and
// 16 two-block (58 B) ones at 5.9-7.5. Without this rule 16-leaf Merkle
// trees, the top levels of every tree and short multiproof levels pay for
// idle lanes.
inline constexpr std::size_t kSoaMinGroup = 6;

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

// Every lane of an SoA state block at the SHA-256 initial value.
inline void soa_init_states(std::uint32_t* soa) noexcept {
    for (std::size_t w = 0; w < 8; ++w) {
        for (std::size_t l = 0; l < kSoaLanes; ++l) soa[kSoaLanes * w + l] = kSha256Init[w];
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

// Batch one-shot SHA-256 over `n` independent contiguous byte streams:
// out[i] = H(data[i][0..len[i])). Streams of mixed lengths hash 16 at a
// time through the engine; bit-identical to Sha256::hash per stream. The
// one ragged multi-message hasher: Sha256::hash_fixed_many and hash_many
// are front ends to it.
void sha256_streams(const std::uint8_t* const* data, const std::size_t* len,
                    std::size_t n, Digest* out) noexcept;

// One hash chain to advance: dst <- H^steps(src), 32-byte values. src and
// dst may be the same value; distinct jobs must not overlap.
struct ChainJob {
    const std::uint8_t* src = nullptr;
    std::uint8_t* dst = nullptr;
    std::uint8_t steps = 0;  // at most kMaxChainSteps
};

// The longest chain a job may ask for: the WOTS chain length (w = 16).
inline constexpr unsigned kMaxChainSteps = 15;

// Advances every job at full 16-lane density: full groups of same-step
// jobs run in lockstep, the rest drain by lane refill. Bit-identical to
// stepping each job on its own with Sha256::hash.
void run_chain_jobs(std::span<const ChainJob> jobs);

}  // namespace dlsbl::crypto::detail

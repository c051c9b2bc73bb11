// Internal SHA-256 compression backends (crypto module only).
//
// The public Sha256 API (crypto/sha256.hpp) routes every compression
// through one of these backends, selected once at runtime by CPU
// dispatch (see sha256.cpp). Three tiers exist:
//
//   * scalar — the portable FIPS 180-4 reference loop plus a 4-way
//     interleaved message-schedule variant for `compress_lanes` that the
//     auto-vectorizer can lower to SSE2 (the x86-64 baseline);
//   * shani  — Intel SHA extensions (`sha256rnds2` et al.), the fastest
//     single-stream path by a wide margin where available;
//   * avx2   — 8-way interleaved lanes in 256-bit registers; no
//     single-stream win, but near-linear lane scaling on CPUs without
//     SHA-NI.
//
// Every backend computes bit-identical digests; tests/test_sha256_kat.cpp
// runs the FIPS known-answer vectors against each compiled-in tier.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dlsbl::crypto::detail {

inline constexpr std::uint32_t kSha256Init[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

extern const std::uint32_t kSha256Round[64];

// One compression backend.
//   compress       — advances ONE chaining state over `nblocks` consecutive
//                    64-byte blocks (a single stream).
//   compress_lanes — advances `n` INDEPENDENT chaining states
//                    (states[8*i .. 8*i+7]) each over its own single
//                    64-byte block (blocks + 64*i). Two callers: the SoA
//                    engine's fallback (sha256_soa.hpp) on machines without
//                    AVX-512 or with the backend pinned to "scalar", and
//                    Sha256::hash32_many, the eager verifier's chain step.
struct Sha256Backend {
    const char* name;
    void (*compress)(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks);
    void (*compress_lanes)(std::uint32_t* states, const std::uint8_t* blocks,
                           std::size_t n);
};

// Always available.
const Sha256Backend& sha256_scalar_backend();

// nullptr when the kernel was compiled out (non-x86 target or a compiler
// without `__attribute__((target))` support). Callers must ALSO check CPU
// feature bits before selecting one of these — see sha256.cpp.
const Sha256Backend* sha256_shani_backend();
const Sha256Backend* sha256_avx2_backend();

}  // namespace dlsbl::crypto::detail

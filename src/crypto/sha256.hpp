// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The only cryptographic primitive in the repository; the WOTS/Merkle
// signature stack (crypto/wots.hpp, crypto/mss.hpp) and HMAC are built
// exclusively on top of it. Verified against the NIST example vectors in
// tests/test_sha256.cpp and the full FIPS 180-4 known-answer set in
// tests/test_sha256_kat.cpp.
//
// Besides the streaming one-shot API there is a batch surface —
// hash_pair_many / hash_fixed_many / hash_many / hash32_many — that hashes
// N independent messages. The first three run 16 messages per pass on the
// struct-of-arrays engine of crypto/sha256_soa.hpp (AVX-512, or the active
// backend's lane kernel without it); a group of fewer than 6 messages takes
// the one-shot path. hash32_many, the eager verifier's chain step, runs on
// the backend's lane kernel. The backend (SHA-NI, 8-way AVX2, or a 4-way
// interleaved portable loop) is chosen once at runtime by CPU dispatch,
// overridable via sha256_set_backend or the DLSBL_SHA256_IMPL environment
// variable. All backends and engines are bit-identical; batching changes
// throughput, never output.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace dlsbl::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
    Sha256() noexcept { reset(); }

    void reset() noexcept;
    void update(std::span<const std::uint8_t> data) noexcept;
    void update(std::string_view text) noexcept {
        update(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
    }
    // Finalizes and returns the digest; the object must be reset() before reuse.
    [[nodiscard]] Digest finalize() noexcept;

    static Digest hash(std::span<const std::uint8_t> data) noexcept;
    static Digest hash(std::string_view text) noexcept;
    // H(a || b) — the Merkle tree node combiner. Zero heap allocation:
    // pads on the stack and runs exactly two compressions.
    static Digest hash_pair(const Digest& a, const Digest& b) noexcept;

    // Batch surface. Each call hashes `n` INDEPENDENT messages and is
    // bit-identical to n calls of the scalar one-shot API.

    // out[i] = H(in[32*i .. 32*i+31]). One padded block per message — one
    // step of the eager WOTS verifier's lockstep chain walk.
    static void hash32_many(const std::uint8_t* in, Digest* out,
                            std::size_t n) noexcept;
    static void hash32_many(std::span<const Digest> in,
                            std::span<Digest> out) noexcept;

    // out[i] = hash_pair(pairs[2*i], pairs[2*i+1]); pairs.size() must be
    // 2*out.size(). Adjacent-pair layout matches a Merkle level, and `out`
    // may be the front of `pairs` (a level combined in place).
    static void hash_pair_many(std::span<const Digest> pairs,
                               std::span<Digest> out) noexcept;

    // out[i] = H(in[len*i .. len*i+len-1]): n messages of one common length,
    // packed back to back — the shape of committing or re-checking many
    // data blocks. A front end to the ragged stream hasher.
    static void hash_fixed_many(const std::uint8_t* in, std::size_t len, Digest* out,
                                std::size_t n) noexcept;

    // out[i] = hash(inputs[i]) for arbitrary, possibly mixed lengths; the
    // ragged stream hasher too.
    static void hash_many(std::span<const util::Bytes> inputs,
                          std::span<Digest> out) noexcept;

 private:
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

// Runtime backend control (benchmarks, tests, diagnostics).
//
// sha256_backend() names the backend currently in use ("scalar", "shani",
// "avx2"). sha256_set_backend() switches it: pass a backend name or "auto"
// to re-run CPU dispatch; returns false (and changes nothing) if the named
// backend is compiled out or unsupported on this CPU. The environment
// variable DLSBL_SHA256_IMPL seeds the initial choice the same way.
// Switching is not synchronized with in-flight hashing on other threads;
// select the backend before spinning up parallel work.
std::string_view sha256_backend() noexcept;
bool sha256_set_backend(std::string_view name) noexcept;
std::vector<std::string> sha256_available_backends();

util::Bytes digest_to_bytes(const Digest& d);

}  // namespace dlsbl::crypto

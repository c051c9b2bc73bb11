// SHA-256 multi-lane compression via AVX2: eight independent blocks /
// chaining states interleaved across 256-bit registers.
//
// There is no cross-round parallelism to mine in a single SHA-256 stream,
// so this tier leaves `compress` to the scalar loop and accelerates only
// `compress_lanes` — exactly the shape of the repository's hot paths
// (WOTS chain steps and Merkle level builds are thousands of independent
// one-block hashes). On CPUs with SHA-NI the shani tier wins
// and this one is dormant; it exists for the AVX2-only generations.
//
// Same build strategy as sha256_shani.cpp: per-function target attribute
// so the file is safe to compile without -mavx2.
#include <cstring>

#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DLSBL_SHA256_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace dlsbl::crypto::detail {

#ifdef DLSBL_SHA256_AVX2_KERNEL

namespace {

constexpr int kLanes8 = 8;

__attribute__((target("avx2"))) inline __m256i rotr8(__m256i x, int n) {
    return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return __builtin_bswap32(v);
}

// Word t of each of the eight lanes' blocks, big-endian, one per 32-bit slot.
__attribute__((target("avx2"))) inline __m256i load_w8(const std::uint8_t* blocks,
                                                       int t) {
    return _mm256_setr_epi32(
        static_cast<int>(load_be32(blocks + 0 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 1 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 2 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 3 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 4 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 5 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 6 * 64 + 4 * t)),
        static_cast<int>(load_be32(blocks + 7 * 64 + 4 * t)));
}

// Slot j of the eight lanes' chaining states (states[8*l + j]).
__attribute__((target("avx2"))) inline __m256i load_state8(const std::uint32_t* states,
                                                           int j) {
    return _mm256_setr_epi32(static_cast<int>(states[0 * 8 + j]),
                             static_cast<int>(states[1 * 8 + j]),
                             static_cast<int>(states[2 * 8 + j]),
                             static_cast<int>(states[3 * 8 + j]),
                             static_cast<int>(states[4 * 8 + j]),
                             static_cast<int>(states[5 * 8 + j]),
                             static_cast<int>(states[6 * 8 + j]),
                             static_cast<int>(states[7 * 8 + j]));
}

__attribute__((target("avx2"))) inline void store_state8(std::uint32_t* states, int j,
                                                         __m256i v) {
    alignas(32) std::uint32_t out[kLanes8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), v);
    for (int l = 0; l < kLanes8; ++l) states[8 * l + j] = out[l];
}

__attribute__((target("avx2"))) void compress8_avx2(std::uint32_t* states,
                                                    const std::uint8_t* blocks) {
    __m256i w[64];
    for (int t = 0; t < 16; ++t) w[t] = load_w8(blocks, t);
    for (int t = 16; t < 64; ++t) {
        const __m256i w15 = w[t - 15];
        const __m256i w2 = w[t - 2];
        const __m256i s0 = _mm256_xor_si256(_mm256_xor_si256(rotr8(w15, 7), rotr8(w15, 18)),
                                            _mm256_srli_epi32(w15, 3));
        const __m256i s1 = _mm256_xor_si256(_mm256_xor_si256(rotr8(w2, 17), rotr8(w2, 19)),
                                            _mm256_srli_epi32(w2, 10));
        w[t] = _mm256_add_epi32(_mm256_add_epi32(w[t - 16], s0),
                                _mm256_add_epi32(w[t - 7], s1));
    }

    __m256i a = load_state8(states, 0);
    __m256i b = load_state8(states, 1);
    __m256i c = load_state8(states, 2);
    __m256i d = load_state8(states, 3);
    __m256i e = load_state8(states, 4);
    __m256i f = load_state8(states, 5);
    __m256i g = load_state8(states, 6);
    __m256i h = load_state8(states, 7);

    const __m256i a0 = a, b0 = b, c0 = c, d0 = d, e0 = e, f0 = f, g0 = g, h0 = h;

    for (int t = 0; t < 64; ++t) {
        const __m256i s1 =
            _mm256_xor_si256(_mm256_xor_si256(rotr8(e, 6), rotr8(e, 11)), rotr8(e, 25));
        const __m256i ch =
            _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
        const __m256i t1 = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[t])),
            _mm256_set1_epi32(static_cast<int>(kSha256Round[t])));
        const __m256i s0 =
            _mm256_xor_si256(_mm256_xor_si256(rotr8(a, 2), rotr8(a, 13)), rotr8(a, 22));
        const __m256i maj = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
            _mm256_and_si256(b, c));
        const __m256i t2 = _mm256_add_epi32(s0, maj);
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(t1, t2);
    }

    store_state8(states, 0, _mm256_add_epi32(a, a0));
    store_state8(states, 1, _mm256_add_epi32(b, b0));
    store_state8(states, 2, _mm256_add_epi32(c, c0));
    store_state8(states, 3, _mm256_add_epi32(d, d0));
    store_state8(states, 4, _mm256_add_epi32(e, e0));
    store_state8(states, 5, _mm256_add_epi32(f, f0));
    store_state8(states, 6, _mm256_add_epi32(g, g0));
    store_state8(states, 7, _mm256_add_epi32(h, h0));
}

void compress_lanes_avx2(std::uint32_t* states, const std::uint8_t* blocks,
                         std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes8 <= n; i += kLanes8) {
        compress8_avx2(states + 8 * i, blocks + 64 * i);
    }
    // Remainder lanes fall back to the portable 4-way/scalar tier.
    if (i < n) {
        sha256_scalar_backend().compress_lanes(states + 8 * i, blocks + 64 * i, n - i);
    }
}

void compress_avx2(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t nblocks) {
    // A single stream has no lane parallelism; defer to the scalar loop.
    sha256_scalar_backend().compress(state, blocks, nblocks);
}

}  // namespace

const Sha256Backend* sha256_avx2_backend() {
    static constexpr Sha256Backend backend{"avx2", &compress_avx2, &compress_lanes_avx2};
    return &backend;
}

#else  // !DLSBL_SHA256_AVX2_KERNEL

const Sha256Backend* sha256_avx2_backend() { return nullptr; }

#endif

}  // namespace dlsbl::crypto::detail

// 16-wide struct-of-arrays SHA-256 via AVX-512 (see sha256_soa.hpp).
//
// Every zmm register holds one word position across 16 independent lanes,
// so the classic scalar round function vectorizes directly: rotates become
// vprold, the three-way xors and the Ch/Maj bitselects collapse into
// single vpternlogd ops. Measured on Emerald Rapids this sustains ~2.6x
// the throughput of the serial SHA-NI stream and ~1.6x the 2-way
// interleaved SHA-NI lane kernel, because the 512-bit ALU work runs on
// different execution ports than sha256rnds2. (Fusing both engines in one
// instruction stream does NOT work: SHA-NI has only legacy-SSE encodings,
// and mixing those with live zmm state triggers SSE/AVX transition stalls
// that cost more than either kernel saves.)
//
// The chain16 entry point is the hot loop of batch verification, WOTS
// keygen and WOTS signing: a hash32 chain step d <- SHA256(d) needs no
// byte order fixups between steps at all, because the native word output
// of one compression is exactly the message word input of the next.
//
// Built with per-function target attributes so the file also compiles in
// builds without -mavx512f (e.g. sanitizer targets that glob src/**.cpp).
// Runtime CPU/OS feature detection gates dispatch below; correctness is
// pinned against the scalar backend by tests/test_crypto_batch.cpp.
#include "crypto/sha256_soa.hpp"

#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DLSBL_SHA256_SOA512_KERNEL 1
#include <cpuid.h>
#include <immintrin.h>
// GCC's _mm512_ror_epi32 wrapper passes _mm512_undefined_epi32() as the
// masked-off merge operand, which trips -Wuninitialized despite the full
// ~0 mask making it unreachable.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dlsbl::crypto::detail {

#ifdef DLSBL_SHA256_SOA512_KERNEL

namespace {

// Padded tail of a 32-byte message as big-endian schedule words W8..W15:
// 0x80 marker, zeros, 256-bit length. Must match kPad32Tail in sha256.cpp.
constexpr std::uint32_t kPad32Words[8] = {0x80000000u, 0, 0, 0, 0, 0, 0, 0x00000100u};

#define DLSBL_SOA_ROTR(x, n) _mm512_ror_epi32((x), (n))
// sigma0/sigma1 (schedule) and Sigma0/Sigma1 (rounds): the final three-way
// xor is one vpternlogd (0x96 = parity).
#define DLSBL_SOA_SSIG0(x)                                                  \
    _mm512_ternarylogic_epi32(DLSBL_SOA_ROTR((x), 7), DLSBL_SOA_ROTR((x), 18), \
                              _mm512_srli_epi32((x), 3), 0x96)
#define DLSBL_SOA_SSIG1(x)                                                   \
    _mm512_ternarylogic_epi32(DLSBL_SOA_ROTR((x), 17), DLSBL_SOA_ROTR((x), 19), \
                              _mm512_srli_epi32((x), 10), 0x96)
#define DLSBL_SOA_BSIG0(x)                                                  \
    _mm512_ternarylogic_epi32(DLSBL_SOA_ROTR((x), 2), DLSBL_SOA_ROTR((x), 13), \
                              DLSBL_SOA_ROTR((x), 22), 0x96)
#define DLSBL_SOA_BSIG1(x)                                                  \
    _mm512_ternarylogic_epi32(DLSBL_SOA_ROTR((x), 6), DLSBL_SOA_ROTR((x), 11), \
                              DLSBL_SOA_ROTR((x), 25), 0x96)
// Ch(e,f,g) = (e&f)^(~e&g) = ternlog 0xCA; Maj(a,b,c) = ternlog 0xE8.
#define DLSBL_SOA_CH(e, f, g) _mm512_ternarylogic_epi32((e), (f), (g), 0xCA)
#define DLSBL_SOA_MAJ(a, b, c) _mm512_ternarylogic_epi32((a), (b), (c), 0xE8)

// One round over the 16-element schedule ring `w`; rounds >= 16 expand the
// ring in place. Relies on `t` being a compile-time constant so the ring
// indices fold away under full unrolling.
#define DLSBL_SOA_ROUND(t)                                                        \
    do {                                                                          \
        __m512i wt;                                                              \
        if ((t) < 16) {                                                          \
            wt = w[(t)];                                                         \
        } else {                                                                 \
            wt = _mm512_add_epi32(                                               \
                _mm512_add_epi32(DLSBL_SOA_SSIG1(w[((t)-2) & 15]), w[((t)-7) & 15]), \
                _mm512_add_epi32(DLSBL_SOA_SSIG0(w[((t)-15) & 15]), w[((t)-16) & 15])); \
            w[(t) & 15] = wt;                                                    \
        }                                                                        \
        const __m512i T1 = _mm512_add_epi32(                                     \
            _mm512_add_epi32(vh, DLSBL_SOA_BSIG1(ve)),                           \
            _mm512_add_epi32(DLSBL_SOA_CH(ve, vf, vg),                           \
                             _mm512_add_epi32(wt, _mm512_set1_epi32(             \
                                                      (int)kSha256Round[(t)]))));  \
        const __m512i T2 = _mm512_add_epi32(DLSBL_SOA_BSIG0(va),                 \
                                            DLSBL_SOA_MAJ(va, vb, vc));          \
        vh = vg;                                                                 \
        vg = vf;                                                                 \
        vf = ve;                                                                 \
        ve = _mm512_add_epi32(vd, T1);                                           \
        vd = vc;                                                                 \
        vc = vb;                                                                 \
        vb = va;                                                                 \
        va = _mm512_add_epi32(T1, T2);                                           \
    } while (0)

#define DLSBL_SOA_ROUNDS16(base)                                   \
    DLSBL_SOA_ROUND((base) + 0);                                   \
    DLSBL_SOA_ROUND((base) + 1);                                   \
    DLSBL_SOA_ROUND((base) + 2);                                   \
    DLSBL_SOA_ROUND((base) + 3);                                   \
    DLSBL_SOA_ROUND((base) + 4);                                   \
    DLSBL_SOA_ROUND((base) + 5);                                   \
    DLSBL_SOA_ROUND((base) + 6);                                   \
    DLSBL_SOA_ROUND((base) + 7);                                   \
    DLSBL_SOA_ROUND((base) + 8);                                   \
    DLSBL_SOA_ROUND((base) + 9);                                   \
    DLSBL_SOA_ROUND((base) + 10);                                  \
    DLSBL_SOA_ROUND((base) + 11);                                  \
    DLSBL_SOA_ROUND((base) + 12);                                  \
    DLSBL_SOA_ROUND((base) + 13);                                  \
    DLSBL_SOA_ROUND((base) + 14);                                  \
    DLSBL_SOA_ROUND((base) + 15)

__attribute__((target("avx512f"))) void chain16_avx512(std::uint32_t* digests,
                                                       std::size_t steps) {
    __m512i d0 = _mm512_loadu_si512(digests + 16 * 0);
    __m512i d1 = _mm512_loadu_si512(digests + 16 * 1);
    __m512i d2 = _mm512_loadu_si512(digests + 16 * 2);
    __m512i d3 = _mm512_loadu_si512(digests + 16 * 3);
    __m512i d4 = _mm512_loadu_si512(digests + 16 * 4);
    __m512i d5 = _mm512_loadu_si512(digests + 16 * 5);
    __m512i d6 = _mm512_loadu_si512(digests + 16 * 6);
    __m512i d7 = _mm512_loadu_si512(digests + 16 * 7);

    for (std::size_t s = 0; s < steps; ++s) {
        __m512i w[16];
        w[0] = d0; w[1] = d1; w[2] = d2; w[3] = d3;
        w[4] = d4; w[5] = d5; w[6] = d6; w[7] = d7;
        for (int i = 0; i < 8; ++i) {
            w[8 + i] = _mm512_set1_epi32((int)kPad32Words[i]);
        }
        __m512i va = _mm512_set1_epi32((int)kSha256Init[0]);
        __m512i vb = _mm512_set1_epi32((int)kSha256Init[1]);
        __m512i vc = _mm512_set1_epi32((int)kSha256Init[2]);
        __m512i vd = _mm512_set1_epi32((int)kSha256Init[3]);
        __m512i ve = _mm512_set1_epi32((int)kSha256Init[4]);
        __m512i vf = _mm512_set1_epi32((int)kSha256Init[5]);
        __m512i vg = _mm512_set1_epi32((int)kSha256Init[6]);
        __m512i vh = _mm512_set1_epi32((int)kSha256Init[7]);

        DLSBL_SOA_ROUNDS16(0);
        DLSBL_SOA_ROUNDS16(16);
        DLSBL_SOA_ROUNDS16(32);
        DLSBL_SOA_ROUNDS16(48);

        d0 = _mm512_add_epi32(va, _mm512_set1_epi32((int)kSha256Init[0]));
        d1 = _mm512_add_epi32(vb, _mm512_set1_epi32((int)kSha256Init[1]));
        d2 = _mm512_add_epi32(vc, _mm512_set1_epi32((int)kSha256Init[2]));
        d3 = _mm512_add_epi32(vd, _mm512_set1_epi32((int)kSha256Init[3]));
        d4 = _mm512_add_epi32(ve, _mm512_set1_epi32((int)kSha256Init[4]));
        d5 = _mm512_add_epi32(vf, _mm512_set1_epi32((int)kSha256Init[5]));
        d6 = _mm512_add_epi32(vg, _mm512_set1_epi32((int)kSha256Init[6]));
        d7 = _mm512_add_epi32(vh, _mm512_set1_epi32((int)kSha256Init[7]));
    }

    _mm512_storeu_si512(digests + 16 * 0, d0);
    _mm512_storeu_si512(digests + 16 * 1, d1);
    _mm512_storeu_si512(digests + 16 * 2, d2);
    _mm512_storeu_si512(digests + 16 * 3, d3);
    _mm512_storeu_si512(digests + 16 * 4, d4);
    _mm512_storeu_si512(digests + 16 * 5, d5);
    _mm512_storeu_si512(digests + 16 * 6, d6);
    _mm512_storeu_si512(digests + 16 * 7, d7);
}

__attribute__((target("avx512f,avx512bw"))) void compress16_avx512(
    std::uint32_t* states, const std::uint8_t* const* blocks) {
    // Load each lane's 64-byte block and flip to big-endian word order.
    const __m512i bswap = _mm512_broadcast_i32x4(
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll));
    __m512i r[16];
    for (int l = 0; l < 16; ++l) {
        r[l] = _mm512_shuffle_epi8(
            _mm512_loadu_si512(reinterpret_cast<const void*>(blocks[l])), bswap);
    }

    // 16x16 dword transpose: rows = lanes, columns = schedule words.
    __m512i t[16];
    for (int k = 0; k < 8; ++k) {
        t[2 * k] = _mm512_unpacklo_epi32(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_epi32(r[2 * k], r[2 * k + 1]);
    }
    __m512i u[16];
    for (int g = 0; g < 4; ++g) {
        // Rows 4g..4g+3: u[4g+k] holds words k, k+4, k+8, k+12 per quarter.
        u[4 * g + 0] = _mm512_unpacklo_epi64(t[4 * g + 0], t[4 * g + 2]);
        u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g + 0], t[4 * g + 2]);
        u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
        u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
    }
    __m512i w[16];
    for (int k = 0; k < 4; ++k) {
        // Quarters: 0x88 picks (q0,q2), 0xDD picks (q1,q3).
        const __m512i a = _mm512_shuffle_i32x4(u[k], u[k + 4], 0x88);       // w k, k+8 of rows 0-7
        const __m512i b = _mm512_shuffle_i32x4(u[k], u[k + 4], 0xDD);       // w k+4, k+12 of rows 0-7
        const __m512i a2 = _mm512_shuffle_i32x4(u[k + 8], u[k + 12], 0x88); // rows 8-15
        const __m512i b2 = _mm512_shuffle_i32x4(u[k + 8], u[k + 12], 0xDD);
        w[k] = _mm512_shuffle_i32x4(a, a2, 0x88);
        w[k + 8] = _mm512_shuffle_i32x4(a, a2, 0xDD);
        w[k + 4] = _mm512_shuffle_i32x4(b, b2, 0x88);
        w[k + 12] = _mm512_shuffle_i32x4(b, b2, 0xDD);
    }

    __m512i va = _mm512_loadu_si512(states + 16 * 0);
    __m512i vb = _mm512_loadu_si512(states + 16 * 1);
    __m512i vc = _mm512_loadu_si512(states + 16 * 2);
    __m512i vd = _mm512_loadu_si512(states + 16 * 3);
    __m512i ve = _mm512_loadu_si512(states + 16 * 4);
    __m512i vf = _mm512_loadu_si512(states + 16 * 5);
    __m512i vg = _mm512_loadu_si512(states + 16 * 6);
    __m512i vh = _mm512_loadu_si512(states + 16 * 7);
    const __m512i sa = va, sb = vb, sc = vc, sd = vd;
    const __m512i se = ve, sf = vf, sg = vg, sh = vh;

    DLSBL_SOA_ROUNDS16(0);
    DLSBL_SOA_ROUNDS16(16);
    DLSBL_SOA_ROUNDS16(32);
    DLSBL_SOA_ROUNDS16(48);

    _mm512_storeu_si512(states + 16 * 0, _mm512_add_epi32(va, sa));
    _mm512_storeu_si512(states + 16 * 1, _mm512_add_epi32(vb, sb));
    _mm512_storeu_si512(states + 16 * 2, _mm512_add_epi32(vc, sc));
    _mm512_storeu_si512(states + 16 * 3, _mm512_add_epi32(vd, sd));
    _mm512_storeu_si512(states + 16 * 4, _mm512_add_epi32(ve, se));
    _mm512_storeu_si512(states + 16 * 5, _mm512_add_epi32(vf, sf));
    _mm512_storeu_si512(states + 16 * 6, _mm512_add_epi32(vg, sg));
    _mm512_storeu_si512(states + 16 * 7, _mm512_add_epi32(vh, sh));
}

#undef DLSBL_SOA_ROUNDS16
#undef DLSBL_SOA_ROUND
#undef DLSBL_SOA_MAJ
#undef DLSBL_SOA_CH
#undef DLSBL_SOA_BSIG1
#undef DLSBL_SOA_BSIG0
#undef DLSBL_SOA_SSIG1
#undef DLSBL_SOA_SSIG0
#undef DLSBL_SOA_ROTR

bool cpu_supports_avx512bw() noexcept {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool f = (ebx & (1u << 16)) != 0;   // AVX512F
    const bool bw = (ebx & (1u << 30)) != 0;  // AVX512BW
    if (!f || !bw) return false;
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    if ((c & (1u << 27)) == 0) return false;  // OSXSAVE
    unsigned lo = 0, hi = 0;  // xgetbv(0): inline asm avoids needing -mxsave
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    // XMM + YMM + opmask + zmm0-15 upper + zmm16-31 state all enabled.
    return (lo & 0xE6u) == 0xE6u;
}

}  // namespace

const Sha256SoaEngine* sha256_soa512_engine() {
    static const bool supported = cpu_supports_avx512bw();
    if (!supported) return nullptr;
    static constexpr Sha256SoaEngine engine{"avx512", &chain16_avx512,
                                            &compress16_avx512};
    return &engine;
}

#else  // !DLSBL_SHA256_SOA512_KERNEL

const Sha256SoaEngine* sha256_soa512_engine() { return nullptr; }

#endif

}  // namespace dlsbl::crypto::detail

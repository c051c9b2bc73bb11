#include "crypto/sha256.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/sha256_compress.hpp"
#include "crypto/sha256_soa.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DLSBL_SHA256_X86_DISPATCH 1
#include <cpuid.h>
#endif

namespace dlsbl::crypto {

namespace {

using detail::kSha256Init;
using detail::Sha256Backend;

// ---------------------------------------------------------------------------
// Runtime CPU dispatch.

#ifdef DLSBL_SHA256_X86_DISPATCH
bool cpu_supports(const char* backend_name) noexcept {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool has_sha = (ebx & (1u << 29)) != 0;
    const bool has_avx2 = (ebx & (1u << 5)) != 0;
    if (std::strcmp(backend_name, "shani") == 0) return has_sha;
    if (std::strcmp(backend_name, "avx2") == 0) {
        if (!has_avx2) return false;
        // AVX2 additionally needs the OS to have enabled YMM state saving.
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
        if ((c & (1u << 27)) == 0) return false;  // OSXSAVE
        unsigned lo = 0, hi = 0;  // xgetbv(0): inline asm avoids needing -mxsave
        __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
        return (lo & 0x6u) == 0x6u;  // XMM + YMM state enabled
    }
    return false;
}
#else
bool cpu_supports(const char*) noexcept { return false; }
#endif

const Sha256Backend* backend_by_name(std::string_view name) noexcept {
    if (name == "scalar") return &detail::sha256_scalar_backend();
    const Sha256Backend* b = nullptr;
    if (name == "shani") b = detail::sha256_shani_backend();
    if (name == "avx2") b = detail::sha256_avx2_backend();
    if (b != nullptr && cpu_supports(b->name)) return b;
    return nullptr;
}

const Sha256Backend& pick_auto_backend() noexcept {
    if (const Sha256Backend* b = backend_by_name("shani")) return *b;
    if (const Sha256Backend* b = backend_by_name("avx2")) return *b;
    return detail::sha256_scalar_backend();
}

const Sha256Backend& initial_backend() noexcept {
    // Backend override knob; every backend computes identical digests
    // (test_sha256_kat), so replay is unaffected. DLSBL_LINT_ALLOW(determinism)
    if (const char* env = std::getenv("DLSBL_SHA256_IMPL")) {
        if (const Sha256Backend* b = backend_by_name(env)) return *b;
    }
    return pick_auto_backend();
}

std::atomic<const Sha256Backend*> g_backend{nullptr};

const Sha256Backend& active_backend() noexcept {
    const Sha256Backend* b = g_backend.load(std::memory_order_acquire);
    if (b == nullptr) {
        // A race here is benign: both threads resolve the same backend.
        b = &initial_backend();
        g_backend.store(b, std::memory_order_release);
    }
    return *b;
}

// ---------------------------------------------------------------------------
// Padding helpers.

inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

inline void extract_digest(const std::uint32_t* state, Digest& out) noexcept {
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
}

// Number of 64-byte blocks in the padded encoding of a `len`-byte message.
constexpr std::size_t padded_blocks(std::size_t len) noexcept {
    return (len + 1 + 8 + 63) / 64;
}

// Lanes per batch on the stack: 64 lanes = 2 KiB of states + 4 KiB of
// blocks, comfortably within frame-size limits while keeping every
// multi-lane kernel saturated.
constexpr std::size_t kBatch = 64;

// The constant second half of a padded 32-byte message: 0x80, zeros, and
// the 256-bit length. Appending this to any 32-byte input yields its one
// complete padded block.
constexpr std::array<std::uint8_t, 32> kPad32Tail = [] {
    std::array<std::uint8_t, 32> t{};
    t[0] = 0x80;
    t[30] = 0x01;  // 256 bits, big-endian, lands in bytes 62..63 of the block
    return t;
}();

// The constant second block of a padded 64-byte message (hash_pair):
// 0x80, zeros, 512-bit length — identical for every lane, so keep a
// batch-wide replica for compress_lanes.
struct PairPadBlocks {
    alignas(64) std::uint8_t bytes[kBatch * 64];
};

const PairPadBlocks& pair_pad_blocks() noexcept {
    static const PairPadBlocks pad = [] {
        PairPadBlocks p{};
        std::memset(p.bytes, 0, sizeof(p.bytes));
        for (std::size_t l = 0; l < kBatch; ++l) {
            p.bytes[64 * l] = 0x80;
            p.bytes[64 * l + 62] = 0x02;  // 512 bits, big-endian
        }
        return p;
    }();
    return pad;
}

void init_states(std::uint32_t* states, std::size_t lanes) noexcept {
    for (std::size_t l = 0; l < lanes; ++l) {
        std::memcpy(states + 8 * l, kSha256Init, sizeof(kSha256Init));
    }
}

// Writes block `blk` of the padded encoding of the `len`-byte message `msg`
// (padded_blocks(len) blocks in all) to `dst`.
void padded_block(std::uint8_t* dst, const std::uint8_t* msg, std::size_t len,
                  std::size_t blk) noexcept {
    if ((blk + 1) * 64 <= len) {
        std::memcpy(dst, msg + blk * 64, 64);
        return;
    }
    std::memset(dst, 0, 64);
    if (blk * 64 < len) std::memcpy(dst, msg + blk * 64, len - blk * 64);
    if (blk == len / 64) dst[len % 64] = 0x80;
    if (blk == padded_blocks(len) - 1) {
        store_be64(dst + 56, static_cast<std::uint64_t>(len) * 8);
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend control.

std::string_view sha256_backend() noexcept { return active_backend().name; }

bool sha256_set_backend(std::string_view name) noexcept {
    const Sha256Backend* b = nullptr;
    if (name == "auto") {
        b = &pick_auto_backend();
    } else {
        b = backend_by_name(name);
    }
    if (b == nullptr) return false;
    g_backend.store(b, std::memory_order_release);
    return true;
}

std::vector<std::string> sha256_available_backends() {
    std::vector<std::string> names{"scalar"};
    for (const char* name : {"shani", "avx2"}) {
        if (backend_by_name(name) != nullptr) names.emplace_back(name);
    }
    return names;
}

// ---------------------------------------------------------------------------
// Streaming API.

void Sha256::reset() noexcept {
    std::memcpy(state_.data(), kSha256Init, sizeof(kSha256Init));
    buffered_ = 0;
    total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
    const Sha256Backend& backend = active_backend();
    total_bytes_ += data.size();
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t need = 64 - buffered_;
        const std::size_t take = std::min(need, data.size());
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == 64) {
            backend.compress(state_.data(), buffer_.data(), 1);
            buffered_ = 0;
        }
    }
    // All remaining full blocks in one backend call.
    const std::size_t full = (data.size() - offset) / 64;
    if (full > 0) {
        backend.compress(state_.data(), data.data() + offset, full);
        offset += full * 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Digest Sha256::finalize() noexcept {
    // Build the padded tail (one or two blocks) entirely on the stack.
    std::uint8_t tail[128];
    std::size_t n = buffered_;
    std::memcpy(tail, buffer_.data(), n);
    tail[n++] = 0x80;
    const std::size_t total = (n <= 56) ? 64 : 128;
    std::memset(tail + n, 0, total - 8 - n);
    store_be64(tail + total - 8, total_bytes_ * 8);
    active_backend().compress(state_.data(), tail, total / 64);

    Digest out;
    extract_digest(state_.data(), out);
    return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Digest Sha256::hash(std::string_view text) noexcept {
    Sha256 h;
    h.update(text);
    return h.finalize();
}

Digest Sha256::hash_pair(const Digest& a, const Digest& b) noexcept {
    // a || b fills block 0 exactly; block 1 is the constant padding block.
    alignas(64) std::uint8_t blocks[128];
    std::memcpy(blocks, a.data(), 32);
    std::memcpy(blocks + 32, b.data(), 32);
    std::memset(blocks + 64, 0, 64);
    blocks[64] = 0x80;
    blocks[126] = 0x02;  // 512 bits, big-endian

    std::uint32_t state[8];
    std::memcpy(state, kSha256Init, sizeof(state));
    active_backend().compress(state, blocks, 2);

    Digest out;
    extract_digest(state, out);
    return out;
}

// ---------------------------------------------------------------------------
// Batch API.

void Sha256::hash32_many(const std::uint8_t* in, Digest* out,
                         std::size_t n) noexcept {
    const Sha256Backend& backend = active_backend();
    alignas(64) std::uint32_t states[kBatch * 8];
    alignas(64) std::uint8_t blocks[kBatch * 64];

    for (std::size_t base = 0; base < n; base += kBatch) {
        const std::size_t lanes = std::min(kBatch, n - base);
        init_states(states, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            std::memcpy(blocks + 64 * l, in + 32 * (base + l), 32);
            std::memcpy(blocks + 64 * l + 32, kPad32Tail.data(), 32);
        }
        backend.compress_lanes(states, blocks, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            extract_digest(states + 8 * l, out[base + l]);
        }
    }
}

void Sha256::hash32_many(std::span<const Digest> in, std::span<Digest> out) noexcept {
    hash32_many(reinterpret_cast<const std::uint8_t*>(in.data()), out.data(),
                std::min(in.size(), out.size()));
}

void Sha256::hash_pair_many(std::span<const Digest> pairs,
                            std::span<Digest> out) noexcept {
    const std::size_t n = std::min(pairs.size() / 2, out.size());
    const Sha256Backend& backend = active_backend();
    const auto* first_blocks = reinterpret_cast<const std::uint8_t*>(pairs.data());
    alignas(64) std::uint32_t states[kBatch * 8];

    for (std::size_t base = 0; base < n; base += kBatch) {
        const std::size_t lanes = std::min(kBatch, n - base);
        init_states(states, lanes);
        // Block 0: the pair bytes themselves — pair l is one contiguous
        // 64-byte run starting at byte 64*l.
        backend.compress_lanes(states, first_blocks + 64 * base, lanes);
        // Block 1: the shared constant padding block.
        backend.compress_lanes(states, pair_pad_blocks().bytes, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            extract_digest(states + 8 * l, out[base + l]);
        }
    }
}

void Sha256::hash_fixed_many(const std::uint8_t* in, std::size_t len, Digest* out,
                             std::size_t n) noexcept {
    const Sha256Backend& backend = active_backend();
    const std::size_t nblocks = padded_blocks(len);
    alignas(64) std::uint32_t states[kBatch * 8];
    alignas(64) std::uint8_t blocks[kBatch * 64];

    for (std::size_t base = 0; base < n; base += kBatch) {
        const std::size_t lanes = std::min(kBatch, n - base);
        init_states(states, lanes);
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
            for (std::size_t l = 0; l < lanes; ++l) {
                padded_block(blocks + 64 * l, in + len * (base + l), len, blk);
            }
            backend.compress_lanes(states, blocks, lanes);
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            extract_digest(states + 8 * l, out[base + l]);
        }
    }
}

void Sha256::hash_many(std::span<const util::Bytes> inputs,
                       std::span<Digest> out) noexcept {
    const std::size_t n = std::min(inputs.size(), out.size());
    const Sha256Backend& backend = active_backend();
    alignas(64) std::uint32_t lane_states[kBatch * 8];
    alignas(64) std::uint8_t lane_blocks[kBatch * 64];
    std::size_t lane_index[kBatch];

    for (std::size_t base = 0; base < n; base += kBatch) {
        const std::size_t lanes = std::min(kBatch, n - base);
        std::uint32_t states[kBatch * 8];
        std::size_t nblocks[kBatch];
        std::size_t max_blocks = 0;
        init_states(states, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            nblocks[l] = padded_blocks(inputs[base + l].size());
            max_blocks = std::max(max_blocks, nblocks[l]);
        }

        // Advance every still-live lane one block per round, compacting the
        // live set so the multi-lane kernel always sees dense input.
        for (std::size_t blk = 0; blk < max_blocks; ++blk) {
            std::size_t live = 0;
            for (std::size_t l = 0; l < lanes; ++l) {
                if (blk >= nblocks[l]) continue;
                const util::Bytes& msg = inputs[base + l];
                padded_block(lane_blocks + 64 * live, msg.data(), msg.size(), blk);
                std::memcpy(lane_states + 8 * live, states + 8 * l,
                            8 * sizeof(std::uint32_t));
                lane_index[live] = l;
                ++live;
            }
            backend.compress_lanes(lane_states, lane_blocks, live);
            for (std::size_t k = 0; k < live; ++k) {
                std::memcpy(states + 8 * lane_index[k], lane_states + 8 * k,
                            8 * sizeof(std::uint32_t));
            }
        }

        for (std::size_t l = 0; l < lanes; ++l) {
            extract_digest(states + 8 * l, out[base + l]);
        }
    }
}

util::Bytes digest_to_bytes(const Digest& d) { return util::Bytes(d.begin(), d.end()); }

// ---------------------------------------------------------------------------
// SoA engine dispatch (see sha256_soa.hpp). The fallback lives here because
// it reuses the file-local active_backend() and padding constants.

namespace detail {

namespace {

void soa_chain16_lanes(std::uint32_t* digests, std::size_t steps) {
    const Sha256Backend& backend = active_backend();
    alignas(64) std::uint32_t states[kSoaLanes * 8];
    alignas(64) std::uint8_t blocks[kSoaLanes * 64];
    for (std::size_t s = 0; s < steps; ++s) {
        init_states(states, kSoaLanes);
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            soa_store_lane(digests, l, blocks + 64 * l);
            std::memcpy(blocks + 64 * l + 32, kPad32Tail.data(), 32);
        }
        backend.compress_lanes(states, blocks, kSoaLanes);
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            for (std::size_t w = 0; w < 8; ++w) {
                digests[16 * w + l] = states[8 * l + w];
            }
        }
    }
}

void soa_compress16_lanes(std::uint32_t* states_soa,
                          const std::uint8_t* const* blocks) {
    const Sha256Backend& backend = active_backend();
    alignas(64) std::uint32_t states[kSoaLanes * 8];
    alignas(64) std::uint8_t lane_blocks[kSoaLanes * 64];
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
        for (std::size_t w = 0; w < 8; ++w) {
            states[8 * l + w] = states_soa[16 * w + l];
        }
        std::memcpy(lane_blocks + 64 * l, blocks[l], 64);
    }
    backend.compress_lanes(states, lane_blocks, kSoaLanes);
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
        for (std::size_t w = 0; w < 8; ++w) {
            states_soa[16 * w + l] = states[8 * l + w];
        }
    }
}

}  // namespace

const Sha256SoaEngine& sha256_soa_lanes_engine() {
    static constexpr Sha256SoaEngine engine{"lanes", &soa_chain16_lanes,
                                            &soa_compress16_lanes};
    return engine;
}

const Sha256SoaEngine& sha256_soa_engine() {
    // A pinned scalar backend (benchmark baselines, determinism tests) must
    // also pin the batch engine, or "scalar" batch numbers would silently
    // ride the AVX-512 kernel.
    if (std::strcmp(active_backend().name, "scalar") != 0) {
        if (const Sha256SoaEngine* e = sha256_soa512_engine()) return *e;
    }
    return sha256_soa_lanes_engine();
}

}  // namespace detail

}  // namespace dlsbl::crypto

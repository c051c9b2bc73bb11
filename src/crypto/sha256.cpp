#include "crypto/sha256.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

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

// Unrolled, so the compiler merges the stores into one byte-swapped store
// (the loop form stays eight byte stores at -O2).
inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 56);
    p[1] = static_cast<std::uint8_t>(v >> 48);
    p[2] = static_cast<std::uint8_t>(v >> 40);
    p[3] = static_cast<std::uint8_t>(v >> 32);
    p[4] = static_cast<std::uint8_t>(v >> 24);
    p[5] = static_cast<std::uint8_t>(v >> 16);
    p[6] = static_cast<std::uint8_t>(v >> 8);
    p[7] = static_cast<std::uint8_t>(v);
}

inline void extract_digest(const std::uint32_t* state, Digest& out) noexcept {
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
}

// Lanes per hash32_many batch on the stack: 64 lanes = 2 KiB of states +
// 4 KiB of blocks, comfortably within frame-size limits while keeping every
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
// 0x80, zeros, 512-bit length — identical for every pair.
constexpr std::array<std::uint8_t, 64> kPairPadBlock = [] {
    std::array<std::uint8_t, 64> b{};
    b[0] = 0x80;
    b[62] = 0x02;  // 512 bits, big-endian
    return b;
}();

void init_states(std::uint32_t* states, std::size_t lanes) noexcept {
    for (std::size_t l = 0; l < lanes; ++l) {
        std::memcpy(states + 8 * l, kSha256Init, sizeof(kSha256Init));
    }
}

// Hashes streams [0, n) 16 at a time through detail::sha256_streams, where
// stream(i) gives stream i as a byte span: front ends need no n-sized
// pointer tables.
template <typename StreamOf>
void streams_in_groups(std::size_t n, Digest* out, StreamOf&& stream) noexcept {
    const std::uint8_t* data[detail::kSoaLanes];
    std::size_t len[detail::kSoaLanes];
    for (std::size_t base = 0; base < n; base += detail::kSoaLanes) {
        const std::size_t group = std::min(detail::kSoaLanes, n - base);
        for (std::size_t l = 0; l < group; ++l) {
            const std::span<const std::uint8_t> bytes = stream(base + l);
            data[l] = bytes.data();
            len[l] = bytes.size();
        }
        detail::sha256_streams(data, len, group, out + base);
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
    const detail::Sha256SoaEngine& eng = detail::sha256_soa_engine();
    const auto* pair_bytes = reinterpret_cast<const std::uint8_t*>(pairs.data());
    alignas(64) std::uint32_t soa[detail::kSoaWords];
    const std::uint8_t* first[detail::kSoaLanes];
    const std::uint8_t* second[detail::kSoaLanes];
    std::fill(std::begin(second), std::end(second), kPairPadBlock.data());

    for (std::size_t base = 0; base < n; base += detail::kSoaLanes) {
        const std::size_t group = std::min(detail::kSoaLanes, n - base);
        if (group < detail::kSoaMinGroup) {
            for (std::size_t i = base; i < base + group; ++i) {
                out[i] = hash_pair(pairs[2 * i], pairs[2 * i + 1]);
            }
            continue;
        }
        // Block 0 of pair l is the pair's own 64 contiguous bytes; lanes
        // past the group recompress the group's first pair, unread. Every
        // lane reads its pair before any digest of the group is stored, so
        // `out` may overlay the front of `pairs` (a Merkle level in place).
        for (std::size_t l = 0; l < detail::kSoaLanes; ++l) {
            first[l] = pair_bytes + 64 * (base + (l < group ? l : 0));
        }
        detail::soa_init_states(soa);
        eng.compress16(soa, first);
        eng.compress16(soa, second);
        for (std::size_t l = 0; l < group; ++l) {
            detail::soa_store_lane(soa, l, out[base + l].data());
        }
    }
}

void Sha256::hash_fixed_many(const std::uint8_t* in, std::size_t len, Digest* out,
                             std::size_t n) noexcept {
    streams_in_groups(n, out, [in, len](std::size_t i) {
        return std::span<const std::uint8_t>(in + len * i, len);
    });
}

void Sha256::hash_many(std::span<const util::Bytes> inputs,
                       std::span<Digest> out) noexcept {
    streams_in_groups(std::min(inputs.size(), out.size()), out.data(),
                      [inputs](std::size_t i) { return std::span<const std::uint8_t>(inputs[i]); });
}

util::Bytes digest_to_bytes(const Digest& d) { return util::Bytes(d.begin(), d.end()); }

// ---------------------------------------------------------------------------
// SoA engine dispatch and the batch hashers on top of it (see
// sha256_soa.hpp). The fallback engine lives here because it reuses the
// file-local active_backend() and padding constants.

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

void sha256_streams(const std::uint8_t* const* data, const std::size_t* len,
                    std::size_t n, Digest* out) noexcept {
    const Sha256SoaEngine& eng = sha256_soa_engine();

    struct Lane {
        const std::uint8_t* data;
        std::size_t full_blocks;   // whole 64-byte blocks of raw data
        std::size_t total_blocks;  // including the padded tail
        std::uint8_t tail[128];    // 1 or 2 padded final blocks
    };
    std::array<Lane, kSoaLanes> lanes;
    alignas(64) std::uint32_t soa[kSoaWords];

    for (std::size_t base = 0; base < n; base += kSoaLanes) {
        const std::size_t group = std::min(kSoaLanes, n - base);
        if (group < kSoaMinGroup) {
            for (std::size_t i = base; i < base + group; ++i) {
                out[i] = Sha256::hash(std::span<const std::uint8_t>(data[i], len[i]));
            }
            continue;
        }
        std::size_t max_blocks = 0;
        for (std::size_t l = 0; l < group; ++l) {
            Lane& lane = lanes[l];
            const std::size_t length = len[base + l];
            lane.data = data[base + l];
            lane.full_blocks = length / 64;
            lane.total_blocks = (length + 72) / 64;
            const std::size_t rem = length - 64 * lane.full_blocks;
            const std::size_t tail_bytes = 64 * (lane.total_blocks - lane.full_blocks);
            // Zero only the tail blocks in use, 64 bytes at a time: fixed
            // 64-byte memsets inline as vector stores, while one 128-byte
            // memset compiles to `rep stos`, whose start-up cost made the
            // lane set-up cost about half a 16-lane compression.
            std::memset(lane.tail, 0, 64);
            if (tail_bytes == 128) std::memset(lane.tail + 64, 0, 64);
            if (rem != 0) std::memcpy(lane.tail, lane.data + 64 * lane.full_blocks, rem);
            lane.tail[rem] = 0x80;
            store_be64(lane.tail + tail_bytes - 8, static_cast<std::uint64_t>(length) * 8);
            max_blocks = std::max(max_blocks, lane.total_blocks);
        }
        soa_init_states(soa);
        const std::uint8_t* blocks[kSoaLanes];
        for (std::size_t k = 0; k < max_blocks; ++k) {
            for (std::size_t l = 0; l < kSoaLanes; ++l) {
                // Finished lanes (and unused lanes past `group`) keep
                // compressing their tail; the churned state is never read.
                const Lane& lane = lanes[l < group ? l : 0];
                if (k < lane.full_blocks) {
                    blocks[l] = lane.data + 64 * k;
                } else if (k < lane.total_blocks) {
                    blocks[l] = lane.tail + 64 * (k - lane.full_blocks);
                } else {
                    blocks[l] = lane.tail;
                }
            }
            eng.compress16(soa, blocks);
            for (std::size_t l = 0; l < group; ++l) {
                if (lanes[l].total_blocks == k + 1) {
                    soa_store_lane(soa, l, out[base + l].data());
                }
            }
        }
    }
}

// Two phases keep lane density near 100% regardless of the step
// distribution:
//   A) jobs bucketed by step count; each full group of 16 same-step jobs
//      advances in lockstep with no masking and no idle lanes;
//   B) the <16 leftovers of each bucket merge into one descending-sorted
//      pool drained by lane refill: all lanes advance by the minimum
//      remaining count, finished lanes store out and reload the next job.
void run_chain_jobs(std::span<const ChainJob> jobs) {
    const Sha256SoaEngine& eng = sha256_soa_engine();

    // Counting sort into per-step buckets (descending). Zero-step jobs are
    // verbatim copies.
    std::array<std::vector<const ChainJob*>, kMaxChainSteps + 1> buckets;
    for (const ChainJob& job : jobs) {
        if (job.steps == 0) {
            if (job.dst != job.src) std::memcpy(job.dst, job.src, 32);
            continue;
        }
        buckets[job.steps].push_back(&job);
    }

    alignas(64) std::uint32_t soa[kSoaWords] = {};
    std::vector<const ChainJob*> leftover;

    for (std::size_t s = kMaxChainSteps; s >= 1; --s) {
        const auto& bucket = buckets[s];
        std::size_t pos = 0;
        for (; pos + kSoaLanes <= bucket.size(); pos += kSoaLanes) {
            for (std::size_t l = 0; l < kSoaLanes; ++l) {
                soa_load_lane(soa, l, bucket[pos + l]->src);
            }
            eng.chain16(soa, s);
            for (std::size_t l = 0; l < kSoaLanes; ++l) {
                soa_store_lane(soa, l, bucket[pos + l]->dst);
            }
        }
        for (; pos < bucket.size(); ++pos) leftover.push_back(bucket[pos]);
    }
    if (leftover.empty()) return;

    // Lane-refill drain. Inactive lanes keep hashing whatever digest they
    // last held; their output is never read.
    std::array<unsigned, kSoaLanes> rem{};
    std::array<std::uint8_t*, kSoaLanes> dst{};
    std::array<bool, kSoaLanes> alive{};
    std::size_t next = 0;
    unsigned active = 0;
    for (std::size_t l = 0; l < kSoaLanes && next < leftover.size(); ++l, ++next) {
        soa_load_lane(soa, l, leftover[next]->src);
        rem[l] = leftover[next]->steps;
        dst[l] = leftover[next]->dst;
        alive[l] = true;
        ++active;
    }
    while (active > 0) {
        unsigned step = ~0u;
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            if (alive[l]) step = std::min(step, rem[l]);
        }
        eng.chain16(soa, step);
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            if (!alive[l]) continue;
            rem[l] -= step;
            if (rem[l] != 0) continue;
            soa_store_lane(soa, l, dst[l]);
            if (next < leftover.size()) {
                soa_load_lane(soa, l, leftover[next]->src);
                rem[l] = leftover[next]->steps;
                dst[l] = leftover[next]->dst;
                ++next;
            } else {
                alive[l] = false;
                --active;
            }
        }
    }
}

}  // namespace detail

}  // namespace dlsbl::crypto

#include "crypto/wots.hpp"

#include <algorithm>
#include <string_view>

#include "crypto/sha256_soa.hpp"
#include "obs/profiler.hpp"

namespace dlsbl::crypto {

namespace {

using detail::kSoaLanes;
using detail::kSoaWords;

constexpr std::size_t kChains = WotsKeyPair::kChains;
constexpr std::size_t kBlockBytes = 64;  // SHA-256 block = HMAC key block

static_assert(WotsKeyPair::kChainLength == detail::kMaxChainSteps);

// Advance chain i by steps[i] hash applications, all chains in lockstep:
// each round batches every still-active chain through the multi-lane
// hasher. Bit-identical to stepping each chain on its own. The eager
// verifier's path: verify() is the comparator batch verification
// (crypto/batch_verify.hpp) is measured against, so it keeps this shape.
void chain_many(std::array<Digest, kChains>& values,
                const std::array<unsigned, kChains>& steps) {
    std::array<Digest, kChains> batch;
    std::array<std::size_t, kChains> index{};
    for (unsigned step = 0;; ++step) {
        std::size_t live = 0;
        for (std::size_t i = 0; i < kChains; ++i) {
            if (steps[i] > step) {
                batch[live] = values[i];
                index[live] = i;
                ++live;
            }
        }
        if (live == 0) break;
        Sha256::hash32_many(std::span<const Digest>(batch.data(), live),
                            std::span<Digest>(batch.data(), live));
        for (std::size_t k = 0; k < live; ++k) values[index[k]] = batch[k];
    }
}

// The PRF message of chain c is the ByteWriter encoding str("wots-chain")
// || u64(c): u64 label length, the label, u64 index, all little-endian.
// It fits HMAC's inner hash in one padded block, whose length field counts
// the ipad block already absorbed; one table row per chain.
constexpr std::string_view kChainLabel = "wots-chain";
constexpr std::size_t kPrfMessageBytes = 8 + kChainLabel.size() + 8;

constexpr auto kPrfBlocks = [] {
    std::array<std::array<std::uint8_t, kBlockBytes>, kChains> blocks{};
    for (std::size_t c = 0; c < kChains; ++c) {
        auto& block = blocks[c];
        std::size_t pos = 0;
        for (int i = 0; i < 8; ++i) {
            block[pos++] = static_cast<std::uint8_t>(kChainLabel.size() >> (8 * i));
        }
        for (const char ch : kChainLabel) block[pos++] = static_cast<std::uint8_t>(ch);
        for (int i = 0; i < 8; ++i) block[pos++] = static_cast<std::uint8_t>(c >> (8 * i));
        block[pos] = 0x80;
        const std::uint64_t bits = (kBlockBytes + kPrfMessageBytes) * 8;
        for (int i = 0; i < 8; ++i) {
            block[kBlockBytes - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
        }
    }
    return blocks;
}();

// SoA midstates of HMAC keyed by each seed: the SHA-256 state after the
// key block (seed, zero-padded to 64 bytes) XOR `pad`. Lane l holds seed
// l; lanes past n repeat seed 0 and are never read.
void hmac_pad_midstates(const detail::Sha256SoaEngine& eng, const Digest* seeds,
                        std::size_t n, std::uint8_t pad, std::uint32_t* soa) {
    alignas(64) std::uint8_t blocks[kSoaLanes][kBlockBytes] = {};
    const std::uint8_t* lane_blocks[kSoaLanes] = {};
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
        const Digest& key = seeds[l < n ? l : 0];
        for (std::size_t i = 0; i < kBlockBytes; ++i) {
            blocks[l][i] = static_cast<std::uint8_t>((i < key.size() ? key[i] : 0) ^ pad);
        }
        lane_blocks[l] = blocks[l];
    }
    detail::soa_init_states(soa);
    eng.compress16(soa, lane_blocks);
}

// out[kChains * i + c] <- chain c of the key seeded by seeds[i], advanced
// `steps` hash steps from its secret PRF(seeds[i], c); n <= kBatchLeaves.
//
// The n * 67 chains run 16 lanes at a time, chain-major (slot k is chain
// k / n of leaf k % n), so every pass but the last fills all 16 lanes at
// any n. Per pass, two compressions per lane finish the HMAC from that
// lane's leaf midstates (inner hash over the chain's PRF block, outer hash
// over the inner digest), and chain16 steps the secrets while they are
// still in SoA form. Bit-identical to HmacSha256 per secret followed by
// `steps` calls of Sha256::hash.
void chain_values(const Digest* seeds, std::size_t n, unsigned steps, Digest* out) {
    const detail::Sha256SoaEngine& eng = detail::sha256_soa_engine();
    alignas(64) std::uint32_t ipad[kSoaWords] = {};
    alignas(64) std::uint32_t opad[kSoaWords] = {};
    hmac_pad_midstates(eng, seeds, n, 0x36, ipad);
    hmac_pad_midstates(eng, seeds, n, 0x5c, opad);

    // Outer HMAC blocks: lane l's inner digest, then the fixed padding of a
    // 32-byte message after the 64-byte opad block (768 bits).
    alignas(64) std::uint8_t outer[kSoaLanes][kBlockBytes] = {};
    const std::uint8_t* outer_blocks[kSoaLanes] = {};
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
        outer[l][32] = 0x80;
        outer[l][kBlockBytes - 2] = 0x03;
        outer_blocks[l] = outer[l];
    }

    alignas(64) std::uint32_t soa[kSoaWords] = {};
    const std::uint8_t* inner_blocks[kSoaLanes] = {};
    std::size_t leaf[kSoaLanes] = {};
    std::size_t chain[kSoaLanes] = {};
    const std::size_t total = n * kChains;
    for (std::size_t base = 0; base < total; base += kSoaLanes) {
        const std::size_t lanes = std::min(kSoaLanes, total - base);
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            // Lanes past the last slot redo the pass's first slot, unread.
            const std::size_t slot = base + (l < lanes ? l : 0);
            leaf[l] = slot % n;
            chain[l] = slot / n;
            inner_blocks[l] = kPrfBlocks[chain[l]].data();
            for (std::size_t w = 0; w < 8; ++w) {
                soa[kSoaLanes * w + l] = ipad[kSoaLanes * w + leaf[l]];
            }
        }
        eng.compress16(soa, inner_blocks);
        for (std::size_t l = 0; l < kSoaLanes; ++l) {
            detail::soa_store_lane(soa, l, outer[l]);
            for (std::size_t w = 0; w < 8; ++w) {
                soa[kSoaLanes * w + l] = opad[kSoaLanes * w + leaf[l]];
            }
        }
        eng.compress16(soa, outer_blocks);
        eng.chain16(soa, steps);
        for (std::size_t l = 0; l < lanes; ++l) {
            detail::soa_store_lane(soa, l, out[kChains * leaf[l] + chain[l]].data());
        }
    }
}

// Public keys of up to kBatchLeaves keys: each is the hash of its 67 chain
// ends, and the n streams of 2,144 B hash side by side in one 16-lane
// pass. The chain ends of a full group live in a fixed stack buffer, so
// keygen allocates nothing per call.
void public_keys(const Digest* seeds, std::size_t n, Digest* out) {
    std::array<Digest, WotsKeyPair::kBatchLeaves * kChains> ends{};
    chain_values(seeds, n, WotsKeyPair::kChainLength, ends.data());
    std::array<const std::uint8_t*, WotsKeyPair::kBatchLeaves> streams{};
    std::array<std::size_t, WotsKeyPair::kBatchLeaves> lengths{};
    for (std::size_t i = 0; i < n; ++i) {
        streams[i] = ends[kChains * i].data();
        lengths[i] = kChains * sizeof(Digest);
    }
    detail::sha256_streams(streams.data(), lengths.data(), n, out);
}

}  // namespace

util::Bytes WotsKeyPair::Signature::serialize() const {
    util::Bytes out;
    out.reserve(kChains * 32);
    for (const auto& d : values) out.insert(out.end(), d.begin(), d.end());
    return out;
}

std::optional<WotsKeyPair::Signature> WotsKeyPair::Signature::deserialize(
    std::span<const std::uint8_t> data) {
    if (data.size() != kChains * 32) return std::nullopt;
    Signature sig;
    for (std::size_t i = 0; i < kChains; ++i) {
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(i * 32),
                  data.begin() + static_cast<std::ptrdiff_t>((i + 1) * 32),
                  sig.values[i].begin());
    }
    return sig;
}

WotsKeyPair::WotsKeyPair(const Digest& seed) : seed_(seed) {
    public_keys(&seed_, 1, &public_key_);
}

std::vector<WotsKeyPair> WotsKeyPair::generate(std::span<const Digest> seeds) {
    std::vector<WotsKeyPair> keys;
    keys.reserve(seeds.size());
    for (std::size_t first = 0; first < seeds.size(); first += kBatchLeaves) {
        const std::size_t n = std::min(kBatchLeaves, seeds.size() - first);
        std::array<Digest, kBatchLeaves> pks{};
        public_keys(seeds.data() + first, n, pks.data());
        for (std::size_t i = 0; i < n; ++i) keys.push_back(WotsKeyPair(seeds[first + i], pks[i]));
    }
    return keys;
}

std::array<unsigned, WotsKeyPair::kChains> WotsKeyPair::digits_for(
    std::span<const std::uint8_t> message) {
    const Digest md = Sha256::hash(message);
    std::array<unsigned, kChains> digits{};
    unsigned checksum = 0;
    for (std::size_t i = 0; i < kDigits; ++i) {
        const std::uint8_t byte = md[i / 2];
        const unsigned digit = (i % 2 == 0) ? (byte >> 4) : (byte & 0x0f);
        digits[i] = digit;
        checksum += kChainLength - digit;
    }
    // Base-16 big-endian checksum in the final three chains.
    digits[kDigits] = (checksum >> 8) & 0x0f;
    digits[kDigits + 1] = (checksum >> 4) & 0x0f;
    digits[kDigits + 2] = checksum & 0x0f;
    return digits;
}

WotsKeyPair::Signature WotsKeyPair::sign(std::span<const std::uint8_t> message) const {
    OBS_SCOPE("wots_sign");
    const auto digits = digits_for(message);
    Signature sig;
    chain_values(&seed_, 1, 0, sig.values.data());
    // Chain c steps digits[c] times from its secret, in place, through the
    // lane-refill scheduler batch verification uses.
    std::array<detail::ChainJob, kChains> jobs;
    for (std::size_t c = 0; c < kChains; ++c) {
        jobs[c] = {sig.values[c].data(), sig.values[c].data(),
                   static_cast<std::uint8_t>(digits[c])};
    }
    detail::run_chain_jobs(jobs);
    return sig;
}

bool WotsKeyPair::verify(const Digest& public_key, std::span<const std::uint8_t> message,
                         const Signature& signature) {
    OBS_SCOPE("wots_verify");
    const auto digits = digits_for(message);
    std::array<unsigned, kChains> remaining;
    for (std::size_t i = 0; i < kChains; ++i) remaining[i] = kChainLength - digits[i];
    std::array<Digest, kChains> ends = signature.values;
    chain_many(ends, remaining);
    return Sha256::hash(std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(ends.data()), sizeof(ends))) ==
           public_key;
}

}  // namespace dlsbl::crypto

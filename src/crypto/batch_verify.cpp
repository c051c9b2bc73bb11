#include "crypto/batch_verify.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "crypto/mss.hpp"
#include "crypto/sha256_soa.hpp"
#include "crypto/wots.hpp"
#include "obs/profiler.hpp"

namespace dlsbl::crypto {

namespace {

using detail::ChainJob;

// ---------------------------------------------------------------------------
// Zero-copy signature views. parse_sig accepts exactly the byte strings
// MssSignature::deserialize (and the nested MerkleProof::deserialize)
// accepts; everything else yields ok = false, i.e. verdict false.

struct SigView {
    bool ok = false;
    std::uint64_t leaf_index = 0;
    const std::uint8_t* otpk = nullptr;       // 32 bytes
    std::span<const std::uint8_t> ots;
    std::uint64_t path_leaf_index = 0;
    const std::uint8_t* siblings = nullptr;   // sibling_count * 32 bytes
    std::size_t sibling_count = 0;
};

// Little-endian u64, bounds-checked via the caller's remaining count.
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

SigView parse_sig(std::span<const std::uint8_t> data) noexcept {
    SigView view;
    std::size_t pos = 0;
    const auto need = [&](std::size_t n) { return data.size() - pos >= n; };

    if (!need(1 + 8 + 32)) return view;
    if (data[pos++] != kMssSchemeTag) return view;
    view.leaf_index = load_le64(data.data() + pos);
    pos += 8;
    view.otpk = data.data() + pos;
    pos += 32;

    if (!need(8)) return view;
    const std::uint64_t ots_len = load_le64(data.data() + pos);
    pos += 8;
    if (!need(ots_len)) return view;
    view.ots = data.subspan(pos, ots_len);
    pos += ots_len;

    if (!need(8)) return view;
    const std::uint64_t path_len = load_le64(data.data() + pos);
    pos += 8;
    if (!need(path_len) || data.size() - pos != path_len) return view;

    // Nested MerkleProof: u64 leaf_index, u64 count (<= 64), count * 32
    // sibling bytes, nothing trailing.
    if (path_len < 16) return view;
    view.path_leaf_index = load_le64(data.data() + pos);
    const std::uint64_t count = load_le64(data.data() + pos + 8);
    if (count > 64 || path_len - 16 != count * 32) return view;
    view.siblings = data.data() + pos + 16;
    view.sibling_count = count;
    view.ok = true;
    return view;
}

}  // namespace

void mss_verify_many(std::span<const MssVerifyItem> items, bool* verdicts) {
    OBS_SCOPE("mss_verify_batch");
    const std::size_t n = items.size();
    constexpr std::size_t kSigBytes = WotsKeyPair::kChains * 32;  // 2144

    // Parseable signatures with a WOTS-sized OTS (anything else would fail
    // OTS deserialize: verdict false) and their message digests, 16
    // streams at a time.
    std::vector<SigView> views(n);
    std::vector<std::size_t> idx;
    std::vector<Digest> mds;
    {
        std::vector<const std::uint8_t*> ptrs;
        std::vector<std::size_t> lens;
        for (std::size_t i = 0; i < n; ++i) {
            views[i] = parse_sig(items[i].signature);
            verdicts[i] = false;
            if (!views[i].ok || views[i].ots.size() != kSigBytes) continue;
            ptrs.push_back(items[i].message.data());
            lens.push_back(items[i].message.size());
            idx.push_back(i);
        }
        mds.resize(idx.size());
        detail::sha256_streams(ptrs.data(), lens.data(), idx.size(), mds.data());
    }

    // One chain job per WOTS chain, all signatures pooled through the same
    // scheduler; signature k's chain ends land in chain_out[kChains * k ..].
    std::vector<Digest> chain_out(idx.size() * WotsKeyPair::kChains);
    {
        std::vector<ChainJob> jobs;
        jobs.reserve(chain_out.size());
        for (std::size_t k = 0; k < idx.size(); ++k) {
            const Digest& md = mds[k];
            unsigned checksum = 0;
            std::array<unsigned, WotsKeyPair::kChains> digits{};
            for (std::size_t c = 0; c < WotsKeyPair::kDigits; ++c) {
                const std::uint8_t byte = md[c / 2];
                const unsigned digit = (c % 2 == 0) ? (byte >> 4) : (byte & 0x0f);
                digits[c] = digit;
                checksum += WotsKeyPair::kChainLength - digit;
            }
            digits[WotsKeyPair::kDigits] = (checksum >> 8) & 0x0f;
            digits[WotsKeyPair::kDigits + 1] = (checksum >> 4) & 0x0f;
            digits[WotsKeyPair::kDigits + 2] = checksum & 0x0f;
            const std::uint8_t* src = views[idx[k]].ots.data();
            std::uint8_t* dst = chain_out[WotsKeyPair::kChains * k].data();
            for (std::size_t c = 0; c < WotsKeyPair::kChains; ++c) {
                jobs.push_back({src + 32 * c, dst + 32 * c,
                                static_cast<std::uint8_t>(WotsKeyPair::kChainLength -
                                                          digits[c])});
            }
        }
        detail::run_chain_jobs(jobs);
    }

    // One-time public key rebuilds: each signature's chain ends, hashed in
    // place as one stream.
    std::vector<bool> ots_ok(n, false);
    {
        std::vector<const std::uint8_t*> ptrs(idx.size());
        const std::vector<std::size_t> lens(idx.size(), kSigBytes);
        for (std::size_t k = 0; k < idx.size(); ++k) {
            ptrs[k] = chain_out[WotsKeyPair::kChains * k].data();
        }
        std::vector<Digest> pk(idx.size());
        detail::sha256_streams(ptrs.data(), lens.data(), idx.size(), pk.data());
        for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t i = idx[k];
            ots_ok[i] = std::memcmp(pk[k].data(), views[i].otpk, 32) == 0;
        }
    }

    // Merkle authentication paths, recomputed level-by-level across all
    // still-live signatures through the pair hasher.
    {
        std::vector<std::size_t> live;
        std::vector<Digest> node(n);
        std::vector<std::uint64_t> walk_index(n, 0);
        std::size_t max_levels = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!ots_ok[i]) continue;
            if (views[i].path_leaf_index != views[i].leaf_index) continue;
            live.push_back(i);
            std::memcpy(node[i].data(), views[i].otpk, 32);
            walk_index[i] = views[i].path_leaf_index;
            max_levels = std::max(max_levels, views[i].sibling_count);
        }
        std::vector<Digest> pairs;
        std::vector<Digest> combined;
        std::vector<std::size_t> level_items;
        for (std::size_t lvl = 0; lvl < max_levels; ++lvl) {
            pairs.clear();
            level_items.clear();
            for (const std::size_t i : live) {
                if (views[i].sibling_count <= lvl) continue;
                Digest sibling;
                std::memcpy(sibling.data(), views[i].siblings + 32 * lvl, 32);
                if (walk_index[i] % 2 == 0) {
                    pairs.push_back(node[i]);
                    pairs.push_back(sibling);
                } else {
                    pairs.push_back(sibling);
                    pairs.push_back(node[i]);
                }
                level_items.push_back(i);
            }
            combined.resize(level_items.size());
            Sha256::hash_pair_many(pairs, combined);
            for (std::size_t k = 0; k < level_items.size(); ++k) {
                const std::size_t i = level_items[k];
                node[i] = combined[k];
                walk_index[i] /= 2;
            }
        }
        for (const std::size_t i : live) {
            verdicts[i] = node[i] == *items[i].public_key;
        }
    }
}

}  // namespace dlsbl::crypto

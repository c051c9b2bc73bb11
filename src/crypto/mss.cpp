#include "crypto/mss.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "exec/executor.hpp"
#include "obs/profiler.hpp"

namespace dlsbl::crypto {

util::Bytes MssSignature::serialize() const {
    util::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(scheme));
    w.u64(leaf_index);
    w.raw(std::span<const std::uint8_t>(one_time_public_key.data(), one_time_public_key.size()));
    w.bytes(ots);
    w.bytes(auth_path.serialize());
    return w.take();
}

std::optional<MssSignature> MssSignature::deserialize(std::span<const std::uint8_t> data) {
    try {
        util::ByteReader r(data);
        MssSignature sig;
        const std::uint8_t scheme = r.u8();
        if (scheme != static_cast<std::uint8_t>(OtsScheme::kLamport) &&
            scheme != static_cast<std::uint8_t>(OtsScheme::kWots)) {
            return std::nullopt;
        }
        sig.scheme = static_cast<OtsScheme>(scheme);
        sig.leaf_index = r.u64();
        for (auto& b : sig.one_time_public_key) b = r.u8();
        sig.ots = r.bytes();
        const util::Bytes path_bytes = r.bytes();
        auto path = MerkleProof::deserialize(path_bytes);
        if (!path || !r.exhausted()) return std::nullopt;
        sig.auth_path = *path;
        return sig;
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

namespace {

// PRF message for leaf `index`: the ByteWriter encoding
// str("mss-leaf") || u8(scheme) || u64(index), built on the stack.
Digest leaf_seed_prf(const HmacSha256& prf, OtsScheme scheme, std::size_t index) {
    constexpr std::string_view kLabel = "mss-leaf";
    std::uint8_t msg[8 + kLabel.size() + 1 + 8];
    std::size_t pos = 0;
    for (int i = 0; i < 8; ++i) {
        msg[pos++] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(kLabel.size()) >> (8 * i));
    }
    for (char c : kLabel) msg[pos++] = static_cast<std::uint8_t>(c);
    msg[pos++] = static_cast<std::uint8_t>(scheme);  // scheme-separated derivation
    for (int i = 0; i < 8; ++i) {
        msg[pos++] =
            static_cast<std::uint8_t>(static_cast<std::uint64_t>(index) >> (8 * i));
    }
    return prf.mac(std::span<const std::uint8_t>(msg, sizeof(msg)));
}

}  // namespace

MssKeyPair::MssKeyPair(const Digest& seed, unsigned height, OtsScheme scheme,
                       std::size_t keygen_jobs)
    : scheme_(scheme) {
    OBS_SCOPE("mss_keygen");
    if (height > 16) throw std::invalid_argument("MssKeyPair: height too large");
    leaf_count_ = std::size_t{1} << height;
    const HmacSha256 prf(std::span<const std::uint8_t>(seed.data(), seed.size()));

    // Tasks are mutually independent and RunExecutor::map returns them in
    // submission order, so the key material is byte-identical at any job
    // count; one worker runs inline with no threads spawned.
    exec::RunExecutor pool({.jobs = std::max<std::size_t>(keygen_jobs, 1),
                            .root_seed = 0,
                            .capture_events = true});
    std::vector<Digest> leaf_digests;
    leaf_digests.reserve(leaf_count_);
    if (scheme_ == OtsScheme::kLamport) {
        lamport_keys_ = pool.map(leaf_count_, [&](exec::RunSlot& slot) {
            return LamportKeyPair(leaf_seed_prf(prf, scheme_, slot.index()));
        });
        for (const auto& key : lamport_keys_) leaf_digests.push_back(key.public_key());
    } else {
        // One task per batched keygen pass of up to kBatchLeaves leaves.
        constexpr std::size_t kBatch = WotsKeyPair::kBatchLeaves;
        const auto batches =
            pool.map((leaf_count_ + kBatch - 1) / kBatch, [&](exec::RunSlot& slot) {
                const std::size_t first = kBatch * slot.index();
                const std::size_t n = std::min(kBatch, leaf_count_ - first);
                std::array<Digest, kBatch> seeds{};
                for (std::size_t i = 0; i < n; ++i) {
                    seeds[i] = leaf_seed_prf(prf, scheme_, first + i);
                }
                return WotsKeyPair::generate(std::span<const Digest>(seeds.data(), n));
            });
        wots_keys_.reserve(leaf_count_);
        for (const auto& batch : batches) {
            wots_keys_.insert(wots_keys_.end(), batch.begin(), batch.end());
        }
        for (const auto& key : wots_keys_) leaf_digests.push_back(key.public_key());
    }
    tree_ = std::make_unique<MerkleTree>(std::move(leaf_digests));
}

MssSignature MssKeyPair::sign(std::span<const std::uint8_t> message) {
    OBS_SCOPE("mss_sign");
    if (next_leaf_ >= leaf_count_) {
        throw std::length_error("MssKeyPair: one-time keys exhausted");
    }
    MssSignature sig;
    sig.scheme = scheme_;
    sig.leaf_index = next_leaf_;
    if (scheme_ == OtsScheme::kLamport) {
        sig.one_time_public_key = lamport_keys_[next_leaf_].public_key();
        sig.ots = lamport_keys_[next_leaf_].sign(message).serialize();
    } else {
        sig.one_time_public_key = wots_keys_[next_leaf_].public_key();
        sig.ots = wots_keys_[next_leaf_].sign(message).serialize();
    }
    sig.auth_path = tree_->prove(next_leaf_);
    ++next_leaf_;
    return sig;
}

bool MssKeyPair::verify(const Digest& public_key, std::span<const std::uint8_t> message,
                        const MssSignature& signature) {
    OBS_SCOPE("mss_verify");
    bool ots_ok = false;
    if (signature.scheme == OtsScheme::kLamport) {
        const auto ots = LamportSignature::deserialize(signature.ots);
        ots_ok = ots && LamportKeyPair::verify(signature.one_time_public_key, message,
                                               *ots);
    } else {
        const auto ots = WotsKeyPair::Signature::deserialize(signature.ots);
        ots_ok = ots && WotsKeyPair::verify(signature.one_time_public_key, message, *ots);
    }
    if (!ots_ok) return false;
    if (signature.auth_path.leaf_index != signature.leaf_index) return false;
    return MerkleTree::verify(public_key, signature.one_time_public_key,
                              signature.auth_path);
}

}  // namespace dlsbl::crypto

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
    w.u8(kMssSchemeTag);
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
        if (r.u8() != kMssSchemeTag) return std::nullopt;
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
// str("mss-leaf") || u8(kMssSchemeTag) || u64(index), built on the stack.
Digest leaf_seed_prf(const HmacSha256& prf, std::size_t index) {
    constexpr std::string_view kLabel = "mss-leaf";
    std::uint8_t msg[8 + kLabel.size() + 1 + 8];
    std::size_t pos = 0;
    for (int i = 0; i < 8; ++i) {
        msg[pos++] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(kLabel.size()) >> (8 * i));
    }
    for (char c : kLabel) msg[pos++] = static_cast<std::uint8_t>(c);
    msg[pos++] = kMssSchemeTag;
    for (int i = 0; i < 8; ++i) {
        msg[pos++] =
            static_cast<std::uint8_t>(static_cast<std::uint64_t>(index) >> (8 * i));
    }
    return prf.mac(std::span<const std::uint8_t>(msg, sizeof(msg)));
}

}  // namespace

MssKeyPair::MssKeyPair(const Digest& seed, unsigned height, std::size_t keygen_jobs) {
    OBS_SCOPE("mss_keygen");
    if (height > 16) throw std::invalid_argument("MssKeyPair: height too large");
    const std::size_t leaf_count = std::size_t{1} << height;
    const HmacSha256 prf(std::span<const std::uint8_t>(seed.data(), seed.size()));

    // One task per batched keygen pass of up to kBatchLeaves leaves. Tasks
    // are mutually independent and RunExecutor::map returns them in
    // submission order, so the key material is byte-identical at any job
    // count; one worker runs inline with no threads spawned.
    exec::RunExecutor pool({.jobs = std::max<std::size_t>(keygen_jobs, 1),
                            .root_seed = 0});
    constexpr std::size_t kBatch = WotsKeyPair::kBatchLeaves;
    const auto batches =
        pool.map((leaf_count + kBatch - 1) / kBatch, [&](exec::RunSlot& slot) {
            const std::size_t first = kBatch * slot.index();
            const std::size_t n = std::min(kBatch, leaf_count - first);
            std::array<Digest, kBatch> seeds{};
            for (std::size_t i = 0; i < n; ++i) seeds[i] = leaf_seed_prf(prf, first + i);
            return WotsKeyPair::generate(std::span<const Digest>(seeds.data(), n));
        });
    keys_.reserve(leaf_count);
    for (const auto& batch : batches) keys_.insert(keys_.end(), batch.begin(), batch.end());
    std::vector<Digest> leaf_digests;
    leaf_digests.reserve(leaf_count);
    for (const auto& key : keys_) leaf_digests.push_back(key.public_key());
    tree_ = std::make_unique<MerkleTree>(std::move(leaf_digests));
}

MssSignature MssKeyPair::sign(std::span<const std::uint8_t> message) {
    OBS_SCOPE("mss_sign");
    if (next_leaf_ >= keys_.size()) {
        throw std::length_error("MssKeyPair: one-time keys exhausted");
    }
    MssSignature sig;
    sig.leaf_index = next_leaf_;
    sig.one_time_public_key = keys_[next_leaf_].public_key();
    sig.ots = keys_[next_leaf_].sign(message).serialize();
    sig.auth_path = tree_->prove(next_leaf_);
    ++next_leaf_;
    return sig;
}

bool MssKeyPair::verify(const Digest& public_key, std::span<const std::uint8_t> message,
                        const MssSignature& signature) {
    OBS_SCOPE("mss_verify");
    const auto ots = WotsKeyPair::Signature::deserialize(signature.ots);
    if (!ots || !WotsKeyPair::verify(signature.one_time_public_key, message, *ots)) {
        return false;
    }
    if (signature.auth_path.leaf_index != signature.leaf_index) return false;
    return MerkleTree::verify(public_key, signature.one_time_public_key,
                              signature.auth_path);
}

}  // namespace dlsbl::crypto

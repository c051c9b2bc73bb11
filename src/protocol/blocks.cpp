#include "protocol/blocks.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "obs/profiler.hpp"

namespace dlsbl::protocol {

namespace {

// Payload and leaf preimages have fixed lengths, so a batch hashes through
// one Sha256::hash_fixed_many call per preimage kind, 16 messages per pass
// of the multi-lane engine; a whole data set hashes in chunks of
// kCommitChunk ids, so committing B blocks holds O(chunk) preimages on top
// of the tree. The layouts are the util::ByteWriter encodings str(tag) ||
// u64 ... (little-endian, length-prefixed tag), written in place.
constexpr std::string_view kPayloadTag = "job-data";
constexpr std::string_view kLeafTag = "block-leaf";
constexpr std::size_t kPayloadInput = 8 + kPayloadTag.size() + 8 + 8;  // tag, job, id
constexpr std::size_t kLeafInput = 8 + kLeafTag.size() + 8 + 32;      // tag, id, payload

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return p + 8;
}

std::uint8_t* put_tag(std::uint8_t* p, std::string_view tag) {
    p = put_u64(p, tag.size());
    std::memcpy(p, tag.data(), tag.size());
    return p + tag.size();
}

void put_payload_input(std::uint8_t* p, std::uint64_t job_id, std::uint64_t id) {
    put_u64(put_u64(put_tag(p, kPayloadTag), job_id), id);
}

void put_leaf_input(std::uint8_t* p, std::uint64_t id, const crypto::Digest& payload) {
    std::memcpy(put_u64(put_tag(p, kLeafTag), id), payload.data(), payload.size());
}

crypto::Digest leaf_digest(std::uint64_t id, const crypto::Digest& payload) {
    std::array<std::uint8_t, kLeafInput> in{};
    put_leaf_input(in.data(), id, payload);
    return crypto::Sha256::hash(in);
}

std::vector<crypto::Digest> payload_digests(std::uint64_t job_id,
                                            std::span<const std::uint64_t> ids) {
    std::vector<std::uint8_t> in(ids.size() * kPayloadInput);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        put_payload_input(in.data() + k * kPayloadInput, job_id, ids[k]);
    }
    std::vector<crypto::Digest> out(ids.size());
    crypto::Sha256::hash_fixed_many(in.data(), kPayloadInput, out.data(), ids.size());
    return out;
}

std::vector<crypto::Digest> leaf_digests(std::span<const std::uint64_t> ids,
                                         std::span<const crypto::Digest> payloads) {
    std::vector<std::uint8_t> in(ids.size() * kLeafInput);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        put_leaf_input(in.data() + k * kLeafInput, ids[k], payloads[k]);
    }
    std::vector<crypto::Digest> out(ids.size());
    crypto::Sha256::hash_fixed_many(in.data(), kLeafInput, out.data(), ids.size());
    return out;
}

// Ids per commitment chunk: 4,096 ids keep the chunk's preimages and
// payload digests near 0.5 MB, whatever the block count.
constexpr std::size_t kCommitChunk = 4096;

crypto::MerkleTree commit(std::uint64_t job_id, std::size_t block_count) {
    OBS_SCOPE("block_commit");
    if (block_count == 0) throw std::invalid_argument("DataSet: need at least one block");
    std::vector<crypto::Digest> leaves(block_count);
    const std::size_t chunk = std::min(block_count, kCommitChunk);
    std::vector<std::uint8_t> payload_in(chunk * kPayloadInput);
    std::vector<crypto::Digest> payloads(chunk);
    std::vector<std::uint8_t> leaf_in(chunk * kLeafInput);
    for (std::size_t first = 0; first < block_count; first += chunk) {
        const std::size_t n = std::min(chunk, block_count - first);
        for (std::size_t k = 0; k < n; ++k) {
            put_payload_input(payload_in.data() + k * kPayloadInput, job_id, first + k);
        }
        crypto::Sha256::hash_fixed_many(payload_in.data(), kPayloadInput, payloads.data(), n);
        for (std::size_t k = 0; k < n; ++k) {
            put_leaf_input(leaf_in.data() + k * kLeafInput, first + k, payloads[k]);
        }
        crypto::Sha256::hash_fixed_many(leaf_in.data(), kLeafInput, leaves.data() + first, n);
    }
    return crypto::MerkleTree(std::move(leaves));
}

}  // namespace

DataSet::DataSet(std::uint64_t job_id, std::size_t block_count)
    : job_id_(job_id), tree_(commit(job_id, block_count)) {}

crypto::Digest DataSet::payload_for(std::uint64_t job_id, std::uint64_t id) {
    std::array<std::uint8_t, kPayloadInput> in{};
    put_payload_input(in.data(), job_id, id);
    return crypto::Sha256::hash(in);
}

Block DataSet::block(std::uint64_t id) const {
    if (id >= block_count()) throw std::out_of_range("DataSet: bad block id");
    Block block;
    block.id = id;
    block.payload_digest = payload_for(job_id_, id);
    block.proof = tree_.prove(id);
    return block;
}

bool DataSet::verify_block(const crypto::Digest& root, const Block& block) {
    if (block.proof.leaf_index != block.id) return false;
    return crypto::MerkleTree::verify(root, leaf_digest(block.id, block.payload_digest),
                                      block.proof);
}

BlockBatch DataSet::batch(std::span<const std::uint64_t> ids) const {
    std::vector<std::uint64_t> distinct(ids.begin(), ids.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    BlockBatch out;
    out.proof = tree_.prove_many(distinct);  // throws on an id >= block_count
    const auto payloads = payload_digests(job_id_, ids);
    out.entries.reserve(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) out.entries.push_back({ids[k], payloads[k]});
    return out;
}

bool DataSet::verify_batch(const crypto::Digest& root, std::size_t block_count,
                           const BlockBatch& batch) {
    OBS_SCOPE("block_verify");
    const auto& entries = batch.entries;
    if (entries.empty()) return batch.proof.empty();
    // Visit entries by ascending id (an honest range batch already is), so
    // repeats are adjacent: each must repeat its first digest.
    std::vector<std::size_t> order(entries.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto by_id = [&](std::size_t a, std::size_t b) {
        return entries[a].id < entries[b].id;
    };
    if (!std::is_sorted(order.begin(), order.end(), by_id)) {
        std::sort(order.begin(), order.end(), by_id);
    }
    std::vector<std::uint64_t> ids;
    std::vector<crypto::Digest> payloads;
    for (const std::size_t k : order) {
        const BlockEntry& entry = entries[k];
        if (entry.id >= block_count) return false;
        if (!ids.empty() && ids.back() == entry.id) {
            if (payloads.back() != entry.payload_digest) return false;
            continue;
        }
        ids.push_back(entry.id);
        payloads.push_back(entry.payload_digest);
    }
    return crypto::MerkleTree::verify_many(root, block_count, ids,
                                           leaf_digests(ids, payloads), batch.proof);
}

std::vector<std::size_t> DataSet::blocks_for_allocation(std::size_t block_count,
                                                        const std::vector<double>& alpha) {
    const std::size_t m = alpha.size();
    if (m == 0) throw std::invalid_argument("blocks_for_allocation: empty allocation");
    std::vector<std::size_t> counts(m, 0);
    std::vector<std::pair<double, std::size_t>> remainders;  // (frac, index)
    remainders.reserve(m);
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const double exact = alpha[i] * static_cast<double>(block_count);
        counts[i] = static_cast<std::size_t>(std::floor(exact));
        assigned += counts[i];
        remainders.emplace_back(exact - std::floor(exact), i);
    }
    // Hand leftover blocks to the largest remainders (ties by index for
    // determinism).
    std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    if (assigned > block_count) throw std::logic_error("blocks_for_allocation: overflow");
    for (std::size_t k = 0; assigned < block_count; ++k, ++assigned) {
        counts[remainders[k % m].second] += 1;
    }
    return counts;
}

}  // namespace dlsbl::protocol

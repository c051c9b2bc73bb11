// User data blocks (§4 Initialization).
//
// "The user prepares her data by dividing it into small, equal-sized
// blocks. Each block B has a unique identifier I_B appended to it and then
// the aggregate is signed by the user, i.e., S_user(B, I_B)."
//
// Implementation: block contents are synthetic (derived from the block id);
// the user commits to the whole data set with a Merkle tree over the block
// digests and signs the root. Blocks travel in batches: each batch lists its
// (id, payload digest) entries and carries one Merkle multiproof over its
// distinct ids, so *any* participant — in particular the referee during an
// Allocating-Load dispute — can check that every block belongs to the
// original data set and that its payload is intact. A contiguous batch of k
// blocks costs k leaf hashes plus at most k - 1 + 2⌈log2 B⌉ pair hashes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/pki.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol {

// One block with its own Merkle path: the single-block reference form.
struct Block {
    std::uint64_t id = 0;
    crypto::Digest payload_digest{};  // stands in for the actual data bytes
    crypto::MerkleProof proof;
};

// One block as a batch ships it: 40 bytes on the wire.
struct BlockEntry {
    std::uint64_t id = 0;
    crypto::Digest payload_digest{};
};

// Blocks in shipping order plus MerkleTree::prove_many over their sorted
// distinct ids. The canonical codec lives with the message bodies that
// carry batches (protocol/messages.cpp and the flat wire::BlockBatchView).
struct BlockBatch {
    std::vector<BlockEntry> entries;
    std::vector<crypto::Digest> proof;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<BlockBatch> deserialize(std::span<const std::uint8_t> data);
};

class DataSet {
 public:
    // Splits the (synthetic) unit load into `block_count` equal blocks and
    // builds the Merkle commitment.
    DataSet(std::uint64_t job_id, std::size_t block_count);

    [[nodiscard]] std::size_t block_count() const noexcept { return tree_.leaf_count(); }
    [[nodiscard]] const crypto::Digest& root() const noexcept { return tree_.root(); }
    [[nodiscard]] std::uint64_t job_id() const noexcept { return job_id_; }

    // The authenticated block with the given id.
    [[nodiscard]] Block block(std::uint64_t id) const;

    // Integrity check against a known root: proof binds (id, payload digest).
    static bool verify_block(const crypto::Digest& root, const Block& block);

    // The batch shipping `ids` in the given order (repeats allowed), with
    // one multiproof over the distinct ids. Throws on an id >= block_count.
    [[nodiscard]] BlockBatch batch(std::span<const std::uint64_t> ids) const;

    // Batch authenticity against a known root over `block_count` blocks:
    // every id is below block_count, repeated ids carry the same digest, and
    // the multiproof rebuilds the root with no sibling left over. An empty
    // batch is authentic iff its proof is empty. All entries of a batch
    // share its verdict.
    static bool verify_batch(const crypto::Digest& root, std::size_t block_count,
                             const BlockBatch& batch);

    // Deterministic payload digest for block `id` of job `job_id` — the
    // synthetic stand-in for hashing the real data bytes.
    static crypto::Digest payload_for(std::uint64_t job_id, std::uint64_t id);

    // Maps a load allocation α (fractions summing to 1) to whole block
    // counts via largest-remainder rounding; the counts sum to block_count.
    static std::vector<std::size_t> blocks_for_allocation(std::size_t block_count,
                                                          const std::vector<double>& alpha);

 private:
    std::uint64_t job_id_;
    crypto::MerkleTree tree_;
};

}  // namespace dlsbl::protocol

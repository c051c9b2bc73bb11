// Merkle hash tree over SHA-256.
//
// Two uses in the repository:
//   * crypto/mss.hpp authenticates one-time WOTS public keys under a
//     single root, turning them into a many-time signature key;
//   * protocol/blocks.hpp commits the user's data blocks so the referee can
//     check block integrity during load-allocation disputes (§4 "Allocating
//     Load": the referee "verifies their integrity"). Blocks travel in
//     batches, each authenticated by one multiproof (prove_many /
//     verify_many) instead of one path per block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace dlsbl::crypto {

struct MerkleProof {
    std::size_t leaf_index = 0;
    std::vector<Digest> siblings;  // bottom-up

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<MerkleProof> deserialize(std::span<const std::uint8_t> data);
};

class MerkleTree {
 public:
    // Builds a tree over the given leaf digests. A non-power-of-two leaf
    // count is padded by duplicating the last leaf digest.
    explicit MerkleTree(std::vector<Digest> leaves);

    [[nodiscard]] const Digest& root() const noexcept { return levels_.back()[0]; }
    [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

    [[nodiscard]] MerkleProof prove(std::size_t leaf_index) const;

    static bool verify(const Digest& root, const Digest& leaf, const MerkleProof& proof);

    // Multiproof for the leaves at `indices` (strictly ascending, each below
    // leaf_count()): the sibling digests the set cannot derive itself,
    // listed level by level from the leaves up, left to right within a
    // level. A contiguous range needs at most 2 siblings per level; the
    // empty set needs none.
    [[nodiscard]] std::vector<Digest> prove_many(
        std::span<const std::uint64_t> indices) const;

    // True iff `indices` is non-empty, strictly ascending and below
    // `leaf_count`, and the leaves plus `siblings` rebuild `root` with no
    // sibling left over. Each level is hashed in one hash_pair_many call;
    // k leaves and s siblings cost exactly k - 1 + s pair hashes.
    static bool verify_many(const Digest& root, std::size_t leaf_count,
                            std::span<const std::uint64_t> indices,
                            std::span<const Digest> leaves,
                            std::span<const Digest> siblings);

 private:
    std::size_t leaf_count_ = 0;
    std::vector<std::vector<Digest>> levels_;  // levels_[0] = padded leaves
};

}  // namespace dlsbl::crypto

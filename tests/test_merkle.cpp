#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace dlsbl::crypto {
namespace {

std::vector<Digest> make_leaves(std::size_t n) {
    std::vector<Digest> leaves;
    leaves.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        leaves.push_back(Sha256::hash("leaf-" + std::to_string(i)));
    }
    return leaves;
}

TEST(Merkle, SingleLeafRootIsLeaf) {
    const auto leaves = make_leaves(1);
    MerkleTree tree(leaves);
    EXPECT_EQ(tree.root(), leaves[0]);
    const MerkleProof proof = tree.prove(0);
    EXPECT_TRUE(proof.siblings.empty());
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], proof));
}

TEST(Merkle, TwoLeaves) {
    const auto leaves = make_leaves(2);
    MerkleTree tree(leaves);
    EXPECT_EQ(tree.root(), Sha256::hash_pair(leaves[0], leaves[1]));
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], tree.prove(i)));
    }
}

TEST(Merkle, AllProofsVerifyPowerOfTwo) {
    const auto leaves = make_leaves(16);
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        const MerkleProof proof = tree.prove(i);
        EXPECT_EQ(proof.siblings.size(), 4u);
        EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], proof));
    }
}

TEST(Merkle, NonPowerOfTwoPadding) {
    for (std::size_t n : {3u, 5u, 6u, 7u, 11u, 13u}) {
        const auto leaves = make_leaves(n);
        MerkleTree tree(leaves);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], tree.prove(i)))
                << "n=" << n << " i=" << i;
        }
    }
}

TEST(Merkle, WrongLeafFailsVerification) {
    const auto leaves = make_leaves(8);
    MerkleTree tree(leaves);
    const MerkleProof proof = tree.prove(3);
    EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[4], proof));
}

TEST(Merkle, TamperedProofFails) {
    const auto leaves = make_leaves(8);
    MerkleTree tree(leaves);
    MerkleProof proof = tree.prove(2);
    proof.siblings[1][0] ^= 0x01;
    EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

TEST(Merkle, WrongIndexFails) {
    const auto leaves = make_leaves(8);
    MerkleTree tree(leaves);
    MerkleProof proof = tree.prove(2);
    proof.leaf_index = 3;
    EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

TEST(Merkle, EmptyThrows) {
    EXPECT_THROW(MerkleTree(std::vector<Digest>{}), std::invalid_argument);
}

TEST(Merkle, ProveOutOfRangeThrows) {
    MerkleTree tree(make_leaves(4));
    EXPECT_THROW(tree.prove(4), std::out_of_range);
}

TEST(Merkle, ProofSerializationRoundTrip) {
    const auto leaves = make_leaves(8);
    MerkleTree tree(leaves);
    const MerkleProof proof = tree.prove(5);
    const auto parsed = MerkleProof::deserialize(proof.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->leaf_index, 5u);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[5], *parsed));
}

TEST(Merkle, DeserializeRejectsTruncated) {
    const auto leaves = make_leaves(8);
    MerkleTree tree(leaves);
    util::Bytes wire = tree.prove(1).serialize();
    wire.pop_back();
    EXPECT_FALSE(MerkleProof::deserialize(wire).has_value());
}

TEST(Merkle, RootChangesWithAnyLeaf) {
    auto leaves = make_leaves(8);
    const Digest original = MerkleTree(leaves).root();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        auto mutated = leaves;
        mutated[i][0] ^= 0x01;
        EXPECT_NE(MerkleTree(mutated).root(), original) << i;
    }
}

// ---- multiproofs ------------------------------------------------------------

// ceil(log2 n): the number of levels above the leaves.
std::size_t depth(std::size_t n) {
    std::size_t d = 0;
    while ((std::size_t{1} << d) < n) ++d;
    return d;
}

std::vector<Digest> leaves_at(const std::vector<Digest>& leaves,
                              const std::vector<std::uint64_t>& indices) {
    std::vector<Digest> out;
    for (const std::uint64_t i : indices) out.push_back(leaves[i]);
    return out;
}

// The sorted distinct leaves of the range start, start+1, ... (mod n).
std::vector<std::uint64_t> range_indices(std::size_t n, std::size_t start, std::size_t len) {
    std::vector<std::uint64_t> indices;
    for (std::size_t k = 0; k < len; ++k) indices.push_back((start + k) % n);
    std::sort(indices.begin(), indices.end());
    return indices;
}

// Positions to probe in a sequence of `size` items: every one of a short
// sequence, else a dozen pseudo-random ones.
std::vector<std::size_t> probes(std::size_t size, util::Xoshiro256& rng) {
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < std::min<std::size_t>(size, 12); ++k) {
        out.push_back(size <= 12 ? k : static_cast<std::size_t>(rng.uniform_int(0, size - 1)));
    }
    return out;
}

// Every forgery of one honest multiproof the verifier must reject: a flipped
// bit in a leaf or sibling (one pseudo-random bit each, or every bit when
// `every_bit`), a dropped, added or swapped sibling, an index >= n, and
// unsorted or duplicated indices. Long sequences are probed at a dozen
// positions.
void expect_forgeries_rejected(const MerkleTree& tree, const std::vector<Digest>& all,
                               const std::vector<std::uint64_t>& indices,
                               util::Xoshiro256& rng, bool every_bit) {
    const std::size_t n = tree.leaf_count();
    const std::vector<Digest> leaves = leaves_at(all, indices);
    const std::vector<Digest> siblings = tree.prove_many(indices);
    const auto verify = [&](const std::vector<std::uint64_t>& idx,
                            const std::vector<Digest>& lv, const std::vector<Digest>& sb) {
        return MerkleTree::verify_many(tree.root(), n, idx, lv, sb);
    };
    ASSERT_TRUE(verify(indices, leaves, siblings));
    const auto flip_each_bit = [&](std::vector<Digest>& digests, std::size_t k,
                                   const auto& check) {
        const std::size_t first =
            every_bit ? 0 : static_cast<std::size_t>(rng.uniform_int(0, 255));
        for (std::size_t bit = first; bit < (every_bit ? 256 : first + 1); ++bit) {
            digests[k][bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            check();
            digests[k][bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    };
    std::vector<Digest> lv = leaves;
    for (const std::size_t k : probes(lv.size(), rng)) {
        flip_each_bit(lv, k, [&] {
            EXPECT_FALSE(verify(indices, lv, siblings)) << "leaf " << k;
            // Per-leaf verification agrees: the flipped leaf fails its path.
            EXPECT_FALSE(MerkleTree::verify(tree.root(), lv[k], tree.prove(indices[k])));
        });
    }
    std::vector<Digest> sb = siblings;
    const std::vector<std::size_t> sibling_probes = probes(sb.size(), rng);
    for (const std::size_t k : sibling_probes) {
        flip_each_bit(sb, k, [&] { EXPECT_FALSE(verify(indices, leaves, sb)) << "sibling " << k; });
    }
    for (const std::size_t k : sibling_probes) {
        std::vector<Digest> dropped = siblings;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(k));
        EXPECT_FALSE(verify(indices, leaves, dropped)) << "dropped " << k;
        for (const std::size_t j : sibling_probes) {
            if (siblings[j] == siblings[k]) continue;  // a no-op swap forges nothing
            std::vector<Digest> swapped = siblings;
            std::swap(swapped[k], swapped[j]);
            EXPECT_FALSE(verify(indices, leaves, swapped)) << "swapped " << k << "," << j;
        }
    }
    for (const Digest& extra : {tree.root(), all.front()}) {
        std::vector<Digest> added = siblings;
        added.push_back(extra);
        EXPECT_FALSE(verify(indices, leaves, added));
        added = siblings;
        added.insert(added.begin(), extra);
        EXPECT_FALSE(verify(indices, leaves, added));
    }
    std::vector<std::uint64_t> beyond = indices;
    beyond.back() = n + static_cast<std::uint64_t>(rng.uniform_int(0, 3));
    EXPECT_FALSE(verify(beyond, leaves, siblings));
    if (indices.size() >= 2) {
        std::vector<std::uint64_t> unsorted = indices;
        std::vector<Digest> unsorted_leaves = leaves;
        std::swap(unsorted[0], unsorted[1]);
        std::swap(unsorted_leaves[0], unsorted_leaves[1]);
        EXPECT_FALSE(verify(unsorted, unsorted_leaves, siblings));
    }
    std::vector<std::uint64_t> duplicated = indices;
    std::vector<Digest> duplicated_leaves = leaves;
    duplicated.push_back(indices.back());
    duplicated_leaves.push_back(leaves.back());
    EXPECT_FALSE(verify(duplicated, duplicated_leaves, siblings));
    EXPECT_FALSE(verify({}, {}, siblings));
}

TEST(MerkleMultiproof, EveryRangeVerifiesUpTo64Leaves) {
    // Exhaustive over B = 1..64, every start and every length, including
    // the ranges that wrap around mod B.
    for (std::size_t n = 1; n <= 64; ++n) {
        const auto all = make_leaves(n);
        const MerkleTree tree(all);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(MerkleTree::verify(tree.root(), all[i], tree.prove(i)));
        }
        for (std::size_t start = 0; start < n; ++start) {
            for (std::size_t len = 1; len <= n; ++len) {
                const auto indices = range_indices(n, start, len);
                const auto siblings = tree.prove_many(indices);
                EXPECT_TRUE(MerkleTree::verify_many(tree.root(), n, indices,
                                                    leaves_at(all, indices), siblings))
                    << "n=" << n << " start=" << start << " len=" << len;
                if (start + len <= n) {
                    EXPECT_LE(siblings.size(), 2 * depth(n))
                        << "n=" << n << " start=" << start << " len=" << len;
                }
            }
        }
    }
}

TEST(MerkleMultiproof, RangeForgeriesRejectedUpTo64Leaves) {
    util::Xoshiro256 rng{2024};
    for (std::size_t n = 1; n <= 64; ++n) {
        const auto all = make_leaves(n);
        const MerkleTree tree(all);
        for (std::size_t start = 0; start < n; ++start) {
            const std::size_t len = 1 + static_cast<std::size_t>(rng.uniform_int(0, n - 1));
            expect_forgeries_rejected(tree, all, range_indices(n, start, len), rng,
                                      /*every_bit=*/false);
        }
    }
}

TEST(MerkleMultiproof, EveryBitFlipRejected) {
    util::Xoshiro256 rng{7};
    for (const std::size_t n : {1u, 2u, 5u, 8u, 13u}) {
        const auto all = make_leaves(n);
        const MerkleTree tree(all);
        expect_forgeries_rejected(tree, all, range_indices(n, n / 2, (n + 1) / 2), rng,
                                  /*every_bit=*/true);
        expect_forgeries_rejected(tree, all, range_indices(n, n - 1, std::min<std::size_t>(2, n)),
                                  rng, /*every_bit=*/true);
    }
}

TEST(MerkleMultiproof, RandomSubsetsUpTo4096Leaves) {
    util::Xoshiro256 rng{99};
    for (const std::size_t n : {65u, 100u, 1000u, 1024u, 4095u, 4096u}) {
        const auto all = make_leaves(n);
        const MerkleTree tree(all);
        for (int trial = 0; trial < 6; ++trial) {
            const double keep = rng.uniform(0.0, 1.0);
            std::vector<std::uint64_t> indices;
            for (std::uint64_t i = 0; i < n; ++i) {
                if (rng.uniform() < keep * keep) indices.push_back(i);
            }
            if (indices.empty()) indices.push_back(rng.uniform_int(0, n - 1));
            const auto leaves = leaves_at(all, indices);
            const auto siblings = tree.prove_many(indices);
            EXPECT_TRUE(MerkleTree::verify_many(tree.root(), n, indices, leaves, siblings))
                << "n=" << n << " trial=" << trial;
            if (trial < 2) {
                expect_forgeries_rejected(tree, all, indices, rng, /*every_bit=*/false);
            }
        }
        // A contiguous range that does not wrap stays within 2 siblings per level.
        const std::size_t start = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        const std::size_t len = 1 + static_cast<std::size_t>(rng.uniform_int(0, n - 1 - start));
        EXPECT_LE(tree.prove_many(range_indices(n, start, len)).size(), 2 * depth(n));
    }
}

TEST(MerkleMultiproof, SingleLeafAndFullRangeProofs) {
    // One leaf's multiproof is its ordinary authentication path; the full
    // range needs only the padding siblings (none for a power of two).
    for (const std::size_t n : {13u, 16u}) {
        const auto all = make_leaves(n);
        const MerkleTree tree(all);
        std::vector<std::uint64_t> every(n);
        std::iota(every.begin(), every.end(), std::uint64_t{0});
        const auto siblings = tree.prove_many(every);
        EXPECT_EQ(siblings.empty(), n == 16);
        EXPECT_TRUE(MerkleTree::verify_many(tree.root(), n, every, all, siblings));
        for (std::uint64_t i = 0; i < n; ++i) {
            EXPECT_EQ(tree.prove_many(std::vector<std::uint64_t>{i}), tree.prove(i).siblings);
        }
    }
}

TEST(MerkleMultiproof, ProveRejectsBadIndexSets) {
    const MerkleTree tree(make_leaves(8));
    EXPECT_TRUE(tree.prove_many({}).empty());
    EXPECT_THROW((void)tree.prove_many(std::vector<std::uint64_t>{8}), std::out_of_range);
    EXPECT_THROW((void)tree.prove_many(std::vector<std::uint64_t>{3, 2}), std::out_of_range);
    EXPECT_THROW((void)tree.prove_many(std::vector<std::uint64_t>{2, 2}), std::out_of_range);
}

}  // namespace
}  // namespace dlsbl::crypto

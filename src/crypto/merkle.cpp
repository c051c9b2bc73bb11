#include "crypto/merkle.hpp"

#include <stdexcept>

namespace dlsbl::crypto {

util::Bytes MerkleProof::serialize() const {
    util::ByteWriter w;
    w.u64(leaf_index);
    w.u64(siblings.size());
    for (const auto& d : siblings) w.raw(std::span<const std::uint8_t>(d.data(), d.size()));
    return w.take();
}

std::optional<MerkleProof> MerkleProof::deserialize(std::span<const std::uint8_t> data) {
    try {
        util::ByteReader r(data);
        MerkleProof proof;
        proof.leaf_index = r.u64();
        const std::uint64_t n = r.u64();
        if (n > 64 || r.remaining() != n * 32) return std::nullopt;
        proof.siblings.resize(n);
        for (auto& d : proof.siblings) {
            for (auto& byte : d) byte = r.u8();
        }
        return proof;
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

MerkleTree::MerkleTree(std::vector<Digest> leaves) : leaf_count_(leaves.size()) {
    if (leaves.empty()) throw std::invalid_argument("MerkleTree: no leaves");
    // Pad to a power of two by repeating the final leaf.
    std::size_t padded = 1;
    while (padded < leaves.size()) padded *= 2;
    leaves.resize(padded, leaves.back());

    levels_.push_back(std::move(leaves));
    while (levels_.back().size() > 1) {
        // Adjacent digests in the level below are exactly the pair inputs,
        // so the whole level combines in one multi-lane batch.
        const auto& below = levels_.back();
        std::vector<Digest> level(below.size() / 2);
        Sha256::hash_pair_many(below, level);
        levels_.push_back(std::move(level));
    }
}

MerkleProof MerkleTree::prove(std::size_t leaf_index) const {
    if (leaf_index >= leaf_count_) throw std::out_of_range("MerkleTree: bad leaf index");
    MerkleProof proof;
    proof.leaf_index = leaf_index;
    std::size_t index = leaf_index;
    for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
        proof.siblings.push_back(levels_[lvl][index ^ 1]);
        index /= 2;
    }
    return proof;
}

namespace {

// One level of a multiproof walk. `index` holds the ascending node indices
// known at this level; climb_level calls step(k, joined) once per parent,
// where `joined` says index[k + 1] is index[k]'s sibling (else the sibling
// must come from the proof), and leaves the parents' indices in `index`.
// prove_many and verify_many share it so they agree on sibling order.
template <typename Step>
bool climb_level(std::vector<std::uint64_t>& index, Step&& step) {
    std::size_t parents = 0;
    for (std::size_t k = 0; k < index.size(); ++parents) {
        const std::uint64_t i = index[k];
        const bool joined = i % 2 == 0 && k + 1 < index.size() && index[k + 1] == i + 1;
        if (!step(k, joined)) return false;
        index[parents] = i / 2;
        k += joined ? 2 : 1;
    }
    index.resize(parents);
    return true;
}

bool ascending_below(std::span<const std::uint64_t> indices, std::size_t bound) {
    for (std::size_t k = 0; k < indices.size(); ++k) {
        if (indices[k] >= bound || (k > 0 && indices[k] <= indices[k - 1])) return false;
    }
    return true;
}

}  // namespace

std::vector<Digest> MerkleTree::prove_many(std::span<const std::uint64_t> indices) const {
    if (!ascending_below(indices, leaf_count_)) {
        throw std::out_of_range("MerkleTree: multiproof indices must ascend below leaf count");
    }
    std::vector<Digest> siblings;
    std::vector<std::uint64_t> index(indices.begin(), indices.end());
    for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
        climb_level(index, [&](std::size_t k, bool joined) {
            if (!joined) siblings.push_back(levels_[lvl][index[k] ^ 1]);
            return true;
        });
    }
    return siblings;
}

bool MerkleTree::verify_many(const Digest& root, std::size_t leaf_count,
                             std::span<const std::uint64_t> indices,
                             std::span<const Digest> leaves,
                             std::span<const Digest> siblings) {
    if (indices.empty() || leaves.size() != indices.size() ||
        !ascending_below(indices, leaf_count)) {
        return false;
    }
    std::vector<std::uint64_t> index(indices.begin(), indices.end());
    std::vector<Digest> nodes(leaves.begin(), leaves.end());
    std::vector<Digest> pairs;
    std::size_t used = 0;
    // One pass per level of the padded tree: ceil(log2 leaf_count) passes.
    for (std::size_t width = 1; width < leaf_count; width *= 2) {
        pairs.clear();
        const bool complete = climb_level(index, [&](std::size_t k, bool joined) {
            if (!joined && used == siblings.size()) return false;
            const Digest& other = joined ? nodes[k + 1] : siblings[used++];
            const bool left = index[k] % 2 == 0;
            pairs.push_back(left ? nodes[k] : other);
            pairs.push_back(left ? other : nodes[k]);
            return true;
        });
        if (!complete) return false;
        nodes.resize(pairs.size() / 2);
        Sha256::hash_pair_many(pairs, nodes);
    }
    return used == siblings.size() && nodes.front() == root;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf, const MerkleProof& proof) {
    Digest node = leaf;
    std::size_t index = proof.leaf_index;
    for (const Digest& sibling : proof.siblings) {
        node = (index % 2 == 0) ? Sha256::hash_pair(node, sibling)
                                : Sha256::hash_pair(sibling, node);
        index /= 2;
    }
    return node == root;
}

}  // namespace dlsbl::crypto

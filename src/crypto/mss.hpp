// Merkle Signature Scheme: many-time signatures from one-time keys.
//
// A key pair with tree height h can sign 2^h messages. The public key is
// the Merkle root over the 2^h one-time public keys; each signature
// carries the one-time signature, the one-time public key, and the Merkle
// authentication path proving that key belongs to the root.
//
// The leaves are Winternitz w=16 one-time keys (crypto/wots.hpp). The
// scheme tag kMssSchemeTag is baked into each leaf's derivation and leads
// every serialized signature.
//
// This is the signature scheme behind S_β(m) in the protocol. An honest
// processor signs two messages per protocol run (bid, payment vector) and a
// scripted deviant at most three, so the protocol's default height is 2
// (crypto::kDefaultMssHeight in pki.hpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/wots.hpp"

namespace dlsbl::crypto {

// The one-time scheme's tag byte: the first byte of every serialized
// MssSignature and part of every leaf-seed derivation. Deserialization
// accepts no other value; tag 1 was the retired Lamport scheme's.
inline constexpr std::uint8_t kMssSchemeTag = 2;

struct MssSignature {
    std::uint64_t leaf_index = 0;
    Digest one_time_public_key{};
    util::Bytes ots;  // serialized WotsKeyPair::Signature
    MerkleProof auth_path;

    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<MssSignature> deserialize(std::span<const std::uint8_t> data);
};

class MssKeyPair {
 public:
    // Derives 2^height one-time keys from the seed. sign() throws
    // std::length_error once all leaves are consumed; protocol cores never
    // reach that, since they ask Signer::signatures_left() first and refuse.
    //
    // keygen_jobs caps the worker threads that build the one-time leaves
    // (via exec::RunExecutor; leaves are independent and returned in
    // submission order, so keys, signatures, and the Merkle root are
    // byte-identical at any job count). 0 and 1 run inline on the calling
    // thread. Leaves are one task per batched keygen pass of
    // WotsKeyPair::kBatchLeaves leaves, so heights up to 4 are a single
    // task and run inline at any job count.
    MssKeyPair(const Digest& seed, unsigned height, std::size_t keygen_jobs = 1);

    [[nodiscard]] const Digest& public_key() const noexcept { return tree_->root(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }
    [[nodiscard]] std::size_t signatures_used() const noexcept { return next_leaf_; }

    [[nodiscard]] MssSignature sign(std::span<const std::uint8_t> message);

    static bool verify(const Digest& public_key, std::span<const std::uint8_t> message,
                       const MssSignature& signature);

 private:
    std::vector<WotsKeyPair> keys_;
    std::unique_ptr<MerkleTree> tree_;
    std::size_t next_leaf_ = 0;
};

}  // namespace dlsbl::crypto

// Merkle Signature Scheme: many-time signatures from one-time keys.
//
// A key pair with tree height h can sign 2^h messages. The public key is
// the Merkle root over the 2^h one-time public keys; each signature
// carries the one-time signature, the one-time public key, and the Merkle
// authentication path proving that key belongs to the root.
//
// Two interchangeable one-time schemes back the leaves:
//   * Lamport (crypto/lamport.hpp) — the textbook construction, 16 KiB
//     signatures;
//   * Winternitz w=16 (crypto/wots.hpp) — ~8x smaller signatures for a few
//     more hash evaluations.
// The scheme tag is baked into each leaf's derivation and carried in the
// signature, so a signature can never verify under the other scheme.
//
// This is the signature scheme behind S_β(m) in the protocol. An honest
// processor signs two messages per protocol run (bid, payment vector) and a
// scripted deviant at most three, so the protocol's default height is 2
// (crypto::kDefaultMssHeight in pki.hpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"
#include "crypto/wots.hpp"

namespace dlsbl::crypto {

enum class OtsScheme : std::uint8_t {
    kLamport = 1,
    kWots = 2,
};

struct MssSignature {
    OtsScheme scheme = OtsScheme::kLamport;
    std::uint64_t leaf_index = 0;
    Digest one_time_public_key{};
    util::Bytes ots;  // serialized LamportSignature or WotsKeyPair::Signature
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
    // thread. Lamport leaves are one task each; WOTS leaves are one task
    // per batched keygen pass of WotsKeyPair::kBatchLeaves leaves, so
    // heights up to 4 are a single task and run inline at any job count.
    MssKeyPair(const Digest& seed, unsigned height,
               OtsScheme scheme = OtsScheme::kLamport, std::size_t keygen_jobs = 1);

    [[nodiscard]] const Digest& public_key() const noexcept { return tree_->root(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return leaf_count_; }
    [[nodiscard]] std::size_t signatures_used() const noexcept { return next_leaf_; }
    [[nodiscard]] OtsScheme scheme() const noexcept { return scheme_; }

    [[nodiscard]] MssSignature sign(std::span<const std::uint8_t> message);

    static bool verify(const Digest& public_key, std::span<const std::uint8_t> message,
                       const MssSignature& signature);

 private:
    OtsScheme scheme_;
    std::size_t leaf_count_ = 0;
    std::vector<LamportKeyPair> lamport_keys_;
    std::vector<WotsKeyPair> wots_keys_;
    std::unique_ptr<MerkleTree> tree_;
    std::size_t next_leaf_ = 0;
};

}  // namespace dlsbl::crypto

// Byte-identity properties of the batched crypto hot paths.
//
// The contract under test: multi-lane hashing, batched chain expansion,
// HMAC midstates, batched and parallel MSS keygen, and the Pki verification
// cache are pure throughput changes — every key, signature, digest, and
// verdict is byte-identical to the scalar single-threaded path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/mss.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_soa.hpp"
#include "crypto/wots.hpp"
#include "util/bytes.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

namespace dlsbl::crypto {
namespace {

class BackendGuard {
 public:
    BackendGuard() : saved_(sha256_backend()) {}
    ~BackendGuard() { sha256_set_backend(saved_); }
    BackendGuard(const BackendGuard&) = delete;
    BackendGuard& operator=(const BackendGuard&) = delete;

 private:
    std::string saved_;
};

Digest test_seed(std::uint64_t n) {
    util::ByteWriter w;
    w.str("batch-test-seed");
    w.u64(n);
    return Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.data().size()));
}

// 1024 random inputs of mixed lengths (0..~4200 bytes, dense around the
// padding boundaries): hash_many must equal the scalar one-shot per input,
// on every backend.
TEST(CryptoBatch, HashManyMatchesScalarOnRandomInputs) {
    util::Xoshiro256 rng{0xba7c4u};
    std::vector<util::Bytes> inputs;
    inputs.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
        std::size_t length;
        if (i % 4 == 0) {
            length = static_cast<std::size_t>(rng.uniform_int(48, 72));  // pad boundary
        } else if (i % 4 == 1) {
            length = static_cast<std::size_t>(rng.uniform_int(0, 16));
        } else if (i % 4 == 2) {
            length = static_cast<std::size_t>(rng.uniform_int(100, 400));
        } else {
            length = static_cast<std::size_t>(rng.uniform_int(1000, 4200));
        }
        util::Bytes data(length);
        for (auto& byte : data) {
            byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        inputs.push_back(std::move(data));
    }

    std::vector<Digest> reference(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        reference[i] = Sha256::hash(inputs[i]);
    }

    BackendGuard guard;
    for (const auto& backend : sha256_available_backends()) {
        ASSERT_TRUE(sha256_set_backend(backend));
        std::vector<Digest> batched(inputs.size());
        Sha256::hash_many(inputs, batched);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            ASSERT_EQ(batched[i], reference[i])
                << "backend=" << backend << " index=" << i
                << " len=" << inputs[i].size();
        }
    }
}

// Batch sizes around the 16-lane group and the small-group cutoff
// (detail::kSoaMinGroup = 6): one-shot groups (1, 2, 5), the smallest
// engine groups (6, 7), whole groups with and without a remainder (15, 16,
// 17, 31, 33) and many groups with a short tail (257).
const std::vector<std::size_t> kLaneCounts = {1, 2, 5, 6, 7, 15, 16, 17, 31, 33, 257};

TEST(CryptoBatch, Hash32ManyAndPairManyMatchScalar) {
    util::Xoshiro256 rng{0x5eedu};
    BackendGuard guard;
    for (const std::size_t n : kLaneCounts) {
        std::vector<Digest> digests(2 * n);
        for (auto& d : digests) {
            for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        for (const auto& backend : sha256_available_backends()) {
            ASSERT_TRUE(sha256_set_backend(backend));

            std::vector<Digest> out(n);
            Sha256::hash32_many(std::span<const Digest>(digests.data(), n), out);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(out[i], Sha256::hash(std::span<const std::uint8_t>(
                                      digests[i].data(), digests[i].size())))
                    << "backend=" << backend << " n=" << n << " index=" << i;
            }

            // In-place hash32_many (the WOTS chain step shape).
            std::vector<Digest> chained(digests.begin(), digests.begin() + n);
            Sha256::hash32_many(chained, chained);
            ASSERT_EQ(chained, out) << "backend=" << backend << " n=" << n;

            std::vector<Digest> combined(n);
            Sha256::hash_pair_many(digests, combined);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(combined[i], Sha256::hash_pair(digests[2 * i], digests[2 * i + 1]))
                    << "backend=" << backend << " n=" << n << " index=" << i;
            }

            // In-place hash_pair_many: `out` is the front of `pairs`, the
            // shape of a Merkle level combined into its own storage.
            std::vector<Digest> level = digests;
            Sha256::hash_pair_many(level, std::span<Digest>(level.data(), n));
            ASSERT_EQ(std::vector<Digest>(level.begin(), level.begin() + n), combined)
                << "backend=" << backend << " n=" << n;
        }
    }
}

// Fixed-length batches at every padding shape (empty, one block, the
// 55/56-byte boundary, the 58-byte block leaf, several blocks) and at every
// lane count of kLaneCounts: hash_fixed_many must equal the scalar one-shot
// per message, on every backend.
TEST(CryptoBatch, HashFixedManyMatchesScalar) {
    util::Xoshiro256 rng{0xf1edu};
    BackendGuard guard;
    for (const std::size_t len : {0u, 1u, 32u, 55u, 56u, 58u, 63u, 64u, 65u, 130u}) {
        for (const std::size_t n : kLaneCounts) {
            util::Bytes in(len * n);
            for (auto& byte : in) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            for (const auto& backend : sha256_available_backends()) {
                ASSERT_TRUE(sha256_set_backend(backend));
                std::vector<Digest> out(n);
                Sha256::hash_fixed_many(in.data(), len, out.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(out[i], Sha256::hash(std::span<const std::uint8_t>(
                                          in.data() + len * i, len)))
                        << "backend=" << backend << " len=" << len << " n=" << n
                        << " index=" << i;
                }
            }
        }
    }
}

// Merkle trees whose levels span one-shot groups, engine groups and both:
// root() and verify_many must match a tree built pair by pair with the
// one-shot hash_pair, on every backend.
TEST(CryptoBatch, MerkleTreeMatchesScalarPairTree) {
    BackendGuard guard;
    for (const std::size_t n : {1u, 2u, 3u, 5u, 16u, 17u, 1000u, 4097u}) {
        std::vector<Digest> leaves;
        for (std::size_t i = 0; i < n; ++i) leaves.push_back(test_seed(1000 + i));
        std::vector<Digest> level = leaves;
        std::size_t width = 1;
        while (width < n) width *= 2;
        level.resize(width, leaves.back());
        while (level.size() > 1) {
            std::vector<Digest> above(level.size() / 2);
            for (std::size_t i = 0; i < above.size(); ++i) {
                above[i] = Sha256::hash_pair(level[2 * i], level[2 * i + 1]);
            }
            level = std::move(above);
        }
        const Digest root = level.front();

        std::vector<std::vector<std::uint64_t>> index_sets = {{0}, {n - 1}};
        index_sets.emplace_back(n);
        std::iota(index_sets.back().begin(), index_sets.back().end(), std::uint64_t{0});
        index_sets.emplace_back();
        for (std::uint64_t i = 1; i < n; i += 3) index_sets.back().push_back(i);
        for (const auto& backend : sha256_available_backends()) {
            ASSERT_TRUE(sha256_set_backend(backend));
            const MerkleTree tree(leaves);
            ASSERT_EQ(tree.root(), root) << "backend=" << backend << " n=" << n;
            for (const auto& indices : index_sets) {
                if (indices.empty()) continue;
                std::vector<Digest> chosen;
                for (const std::uint64_t i : indices) chosen.push_back(leaves[i]);
                EXPECT_TRUE(MerkleTree::verify_many(root, n, indices, chosen,
                                                    tree.prove_many(indices)))
                    << "backend=" << backend << " n=" << n << " k=" << indices.size();
            }
        }
    }
}

// WOTS/Merkle artifacts must not depend on the backend.
TEST(CryptoBatch, SignatureSchemesIdenticalAcrossBackends) {
    const Digest seed = test_seed(1);
    const util::Bytes message = util::to_bytes("the batched message");

    ASSERT_TRUE(sha256_set_backend("scalar"));
    const WotsKeyPair wots_ref(seed);
    const auto wots_sig_ref = wots_ref.sign(message).serialize();
    std::vector<Digest> leaves;
    for (std::uint64_t i = 0; i < 5; ++i) leaves.push_back(test_seed(100 + i));
    const MerkleTree tree_ref(leaves);
    sha256_set_backend("auto");

    BackendGuard guard;
    for (const auto& backend : sha256_available_backends()) {
        ASSERT_TRUE(sha256_set_backend(backend));
        const WotsKeyPair wots(seed);
        EXPECT_EQ(wots.public_key(), wots_ref.public_key()) << backend;
        EXPECT_EQ(wots.sign(message).serialize(), wots_sig_ref) << backend;
        EXPECT_TRUE(WotsKeyPair::verify(wots.public_key(), message, wots_ref.sign(message)))
            << backend;

        const MerkleTree tree(leaves);
        EXPECT_EQ(tree.root(), tree_ref.root()) << backend;
    }
}

// An independent WOTS-MSS reference, built only from the scheme's
// definitions: HMAC leaf seeds under the master seed, HMAC chain secrets
// under each leaf seed, one SHA-256 per chain step, the one-time public key
// as the hash of the concatenated chain ends, and a Merkle tree over those
// keys. It calls no batch API, so it stays independent of the keygen
// kernels it checks.
class WotsMssReference {
 public:
    static constexpr std::size_t kChains = 67;
    static constexpr unsigned kChainLength = 15;

    WotsMssReference(const Digest& seed, unsigned height) {
        const HmacSha256 master(std::span<const std::uint8_t>(seed.data(), seed.size()));
        for (std::uint64_t leaf = 0; leaf < (std::uint64_t{1} << height); ++leaf) {
            util::ByteWriter label;
            label.str("mss-leaf");
            label.u8(2);  // the WOTS scheme tag
            label.u64(leaf);
            leaf_seeds_.push_back(master.mac(label.data()));
            util::Bytes ends;
            for (std::size_t c = 0; c < kChains; ++c) {
                const Digest end = chain(secret(leaf_seeds_.back(), c), kChainLength);
                ends.insert(ends.end(), end.begin(), end.end());
            }
            one_time_keys_.push_back(Sha256::hash(ends));
        }
        tree_ = std::make_unique<MerkleTree>(one_time_keys_);
    }

    [[nodiscard]] const Digest& public_key() const { return tree_->root(); }

    // The serialized MssSignature of `message` under one-time leaf `leaf`.
    [[nodiscard]] util::Bytes sign(std::size_t leaf, const util::Bytes& message) const {
        const Digest md = Sha256::hash(message);
        std::vector<unsigned> digits;
        unsigned checksum = 0;
        for (const std::uint8_t byte : md) {
            for (const unsigned digit : {unsigned{byte} >> 4, unsigned{byte} & 0x0fu}) {
                digits.push_back(digit);
                checksum += kChainLength - digit;
            }
        }
        for (const unsigned shift : {8u, 4u, 0u}) digits.push_back((checksum >> shift) & 0x0fu);

        MssSignature sig;
        sig.leaf_index = leaf;
        sig.one_time_public_key = one_time_keys_[leaf];
        for (std::size_t c = 0; c < kChains; ++c) {
            const Digest value = chain(secret(leaf_seeds_[leaf], c), digits[c]);
            sig.ots.insert(sig.ots.end(), value.begin(), value.end());
        }
        sig.auth_path = tree_->prove(leaf);
        return sig.serialize();
    }

 private:
    static Digest secret(const Digest& leaf_seed, std::size_t c) {
        util::ByteWriter label;
        label.str("wots-chain");
        label.u64(c);
        return hmac_sha256(std::span<const std::uint8_t>(leaf_seed.data(), leaf_seed.size()),
                           label.data());
    }

    static Digest chain(Digest value, unsigned steps) {
        for (unsigned s = 0; s < steps; ++s) {
            value = Sha256::hash(std::span<const std::uint8_t>(value.data(), value.size()));
        }
        return value;
    }

    std::vector<Digest> leaf_seeds_;
    std::vector<Digest> one_time_keys_;
    std::unique_ptr<MerkleTree> tree_;
};

// WOTS-MSS keygen matches the independent reference byte for byte: heights
// 0-6 (h = 0 leaves 67 chains, not a multiple of 16 lanes; h = 5 and 6 span
// several groups of 16 leaves), every backend (scalar also pins the SoA
// engine to its lanes fallback), and several job counts. Roots at h = 0
// and h = 4 are pinned as hex, so the reference itself cannot drift. The
// signatures of up to four leaves per key match the reference's
// single-stream chains, which pins WotsKeyPair::sign (its chains stepped by
// detail::run_chain_jobs) on both engines.
TEST(CryptoBatch, MssWotsKeygenMatchesScalarReference) {
    const Digest seed = test_seed(2);
    const std::vector<std::pair<unsigned, std::string>> pinned_roots = {
        {0, "4c88da8fe4bf87c51d0d330927f3472c6cd7dec13c160251295ea7e4ec5c0bb7"},
        {4, "fcc6ff04c4d61cc5b62552bcc44658c0b3dd6833d0e597613e7d4e7734801b53"},
    };
    BackendGuard guard;
    for (unsigned height = 0; height <= 6; ++height) {
        ASSERT_TRUE(sha256_set_backend("auto"));
        const WotsMssReference reference(seed, height);
        for (const auto& [pinned_height, hex] : pinned_roots) {
            if (pinned_height == height) {
                EXPECT_EQ(util::to_hex(reference.public_key()), hex) << "height=" << height;
            }
        }
        const std::size_t signed_leaves = std::min<std::size_t>(std::size_t{1} << height, 4);
        for (const auto& backend : sha256_available_backends()) {
            ASSERT_TRUE(sha256_set_backend(backend));
            for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
                MssKeyPair key(seed, height, jobs);
                ASSERT_EQ(key.public_key(), reference.public_key())
                    << "height=" << height << " backend=" << backend << " jobs=" << jobs;
                for (std::size_t leaf = 0; leaf < signed_leaves; ++leaf) {
                    const util::Bytes message = util::to_bytes("msg-" + std::to_string(leaf));
                    ASSERT_EQ(key.sign(message).serialize(), reference.sign(leaf, message))
                        << "height=" << height << " backend=" << backend << " jobs=" << jobs
                        << " leaf=" << leaf;
                }
            }
        }
    }
}

TEST(CryptoBatch, HmacMidstateMatchesFreeFunction) {
    util::Xoshiro256 rng{0x4231u};
    for (int round = 0; round < 50; ++round) {
        util::Bytes key(static_cast<std::size_t>(rng.uniform_int(0, 100)));
        for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const HmacSha256 prf(key);
        for (int m = 0; m < 4; ++m) {
            util::Bytes message(static_cast<std::size_t>(rng.uniform_int(0, 200)));
            for (auto& byte : message) {
                byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            }
            EXPECT_EQ(prf.mac(message), hmac_sha256(key, message))
                << "round=" << round << " m=" << m;
        }
    }
}

// mss_verify_many must produce verdict-for-verdict what the eager
// deserialize + verify pair produces — over honest signatures, corrupted
// bytes, truncations, wrong keys, wrong messages, cross-transplants, and
// an honest signature carrying the retired scheme tag 1.
TEST(CryptoBatch, MssVerifyManyMatchesEagerVerdicts) {
    util::Xoshiro256 rng{0x77AAu};
    MssKeyPair key_a(test_seed(10), /*height=*/3);
    MssKeyPair key_b(test_seed(11), /*height=*/3);
    const Digest pk_a = key_a.public_key();
    const Digest pk_b = key_b.public_key();

    std::vector<util::Bytes> messages;
    std::vector<util::Bytes> signatures;
    std::vector<const Digest*> keys;
    for (int m = 0; m < 6; ++m) {
        messages.push_back(util::to_bytes("batch-msg-" + std::to_string(m)));
        signatures.push_back((m % 2 == 0 ? key_a : key_b).sign(messages.back()).serialize());
        keys.push_back(m % 2 == 0 ? &pk_a : &pk_b);
    }
    // Hostile variants: bit flips, truncation, key/message mismatch.
    for (int m = 0; m < 6; ++m) {
        util::Bytes corrupted = signatures[static_cast<std::size_t>(m)];
        corrupted[static_cast<std::size_t>(rng.uniform_int(0, corrupted.size() - 1))] ^= 0x40;
        messages.push_back(messages[static_cast<std::size_t>(m)]);
        signatures.push_back(std::move(corrupted));
        keys.push_back(keys[static_cast<std::size_t>(m)]);
    }
    messages.push_back(messages[0]);
    signatures.push_back(util::Bytes(signatures[0].begin(),
                                     signatures[0].begin() + 10));  // truncated
    keys.push_back(&pk_a);
    messages.push_back(messages[1]);
    signatures.push_back(signatures[1]);
    keys.push_back(&pk_a);  // wrong root for key_b's signature
    messages.push_back(util::to_bytes("different message"));
    signatures.push_back(signatures[0]);
    keys.push_back(&pk_a);  // right key, wrong message
    const std::size_t retired_tag = signatures.size();
    messages.push_back(messages[0]);
    signatures.push_back(signatures[0]);
    signatures.back()[0] = 1;  // valid WOTS bytes under the retired tag
    keys.push_back(&pk_a);

    std::vector<MssVerifyItem> items(signatures.size());
    for (std::size_t i = 0; i < signatures.size(); ++i) {
        items[i] = {keys[i], messages[i], signatures[i]};
    }
    std::vector<std::uint8_t> verdicts(items.size(), 0xCD);
    static_assert(sizeof(bool) == 1);
    mss_verify_many(items, reinterpret_cast<bool*>(verdicts.data()));

    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto parsed = MssSignature::deserialize(signatures[i]);
        const bool eager =
            parsed.has_value() && MssKeyPair::verify(*keys[i], messages[i], *parsed);
        EXPECT_EQ(verdicts[i] != 0, eager) << "item=" << i;
    }
    EXPECT_FALSE(verdicts[retired_tag] != 0);
    // The honest signatures must all verify (guards against a vacuous pass).
    for (std::size_t i = 0; i < 6; ++i) EXPECT_TRUE(verdicts[i] != 0);
}

// Pki::verify_many must be observably identical to sequential Pki::verify:
// same verdicts, same cache content afterwards, same hit/miss statistics —
// including unknown signers, repeated envelopes, and a mix of batchable
// (MSS) and closure-backed (kFast) registrations.
TEST(CryptoBatch, PkiVerifyManyMatchesSequentialVerifyAndStats) {
    const auto run = [](bool batched) {
        Pki pki;
        auto mss_signer = make_registered_signer(pki, "P1", 42,
                                                 SignatureAlgorithm::kMerkleWots, 3);
        auto mss_signer2 =
            make_registered_signer(pki, "P2", 43, SignatureAlgorithm::kMerkleWots, 3);
        auto fast_signer =
            make_registered_signer(pki, "P3", 44, SignatureAlgorithm::kFast);

        std::vector<std::string> signers;
        std::vector<util::Bytes> payloads;
        std::vector<util::Bytes> signatures;
        const auto add = [&](const std::string& who, Signer& signer,
                             const std::string& text, bool corrupt) {
            signers.push_back(who);
            payloads.push_back(util::to_bytes(text));
            signatures.push_back(signer.sign(payloads.back()));
            if (corrupt) signatures.back()[0] ^= 0x01;
        };
        add("P1", *mss_signer, "alpha", false);
        add("P2", *mss_signer2, "beta", false);
        add("P3", *fast_signer, "gamma", false);
        add("P1", *mss_signer, "delta", true);
        // Duplicate of item 0: a cache hit on the sequential path, and the
        // batch path must account it identically.
        signers.push_back("P1");
        payloads.push_back(payloads[0]);
        signatures.push_back(signatures[0]);
        // Unknown signer: false, no stats movement.
        signers.push_back("P9");
        payloads.push_back(util::to_bytes("zeta"));
        signatures.push_back(signatures[0]);

        std::vector<std::uint8_t> verdicts(signers.size(), 0xCD);
        static_assert(sizeof(bool) == 1);
        if (batched) {
            std::vector<Pki::VerifyRequest> requests(signers.size());
            for (std::size_t i = 0; i < signers.size(); ++i) {
                requests[i] = {&signers[i], payloads[i], signatures[i]};
            }
            pki.verify_many(requests, reinterpret_cast<bool*>(verdicts.data()));
        } else {
            for (std::size_t i = 0; i < signers.size(); ++i) {
                verdicts[i] = pki.verify(signers[i], payloads[i], signatures[i]) ? 1 : 0;
            }
        }
        const auto stats = pki.verify_cache_stats();
        return std::tuple(std::vector<bool>(verdicts.begin(), verdicts.end()),
                          stats.hits, stats.misses);
    };

    const auto [eager_verdicts, eager_hits, eager_misses] = run(false);
    const auto [batch_verdicts, batch_hits, batch_misses] = run(true);
    EXPECT_EQ(eager_verdicts,
              (std::vector<bool>{true, true, true, false, true, false}));
    EXPECT_EQ(batch_verdicts, eager_verdicts);
    EXPECT_EQ(batch_hits, eager_hits);
    EXPECT_EQ(batch_misses, eager_misses);
}

// Per-frame key slots are a pure memo: verify_many with them must replay
// verify_many without them — verdicts, hit/miss statistics and cache
// contents — whether the slots start empty or already hold their keys, at
// every cache capacity (0 disables the cache, 3 flushes it mid-batch).
// Each request views the bytes of its own frame, as a delivered envelope
// does.
TEST(CryptoBatch, PkiKeySlotsReplayTheUnslottedPath) {
    struct Request {
        std::string signer;
        util::Frame frame;  // payload || signature
        std::size_t payload_size = 0;
    };
    const auto make_frame = [](std::span<const std::uint8_t> payload,
                               std::span<const std::uint8_t> signature) {
        util::Bytes bytes(payload.begin(), payload.end());
        bytes.insert(bytes.end(), signature.begin(), signature.end());
        return util::Frame(std::move(bytes));
    };
    const auto build = [&](Pki& pki) {
        auto wots = make_registered_signer(pki, "P1", 42, SignatureAlgorithm::kMerkleWots, 3);
        auto fast = make_registered_signer(pki, "P3", 44, SignatureAlgorithm::kFast);
        std::vector<Request> out;
        const auto add = [&](const std::string& who, Signer& signer, const std::string& text,
                             bool tamper) {
            const util::Bytes payload = util::to_bytes(text);
            util::Bytes signature = signer.sign(payload);
            if (tamper) signature[0] ^= 0x01;
            out.push_back({who, make_frame(payload, signature), payload.size()});
        };
        add("P1", *wots, "alpha", false);
        add("P3", *fast, "gamma", false);
        add("P1", *wots, "delta", true);  // tampered
        add("P9", *fast, "zeta", false);  // unregistered signer
        add("P3", *fast, "eta", false);
        out.push_back(out[0]);            // the same frame delivered again
        // Relays of frame 0 in frames of their own: one with its bytes
        // intact, one with a payload byte changed.
        const auto bytes0 = out[0].frame.bytes();
        out.push_back({"P1", util::Frame(util::Bytes(bytes0.begin(), bytes0.end())),
                       out[0].payload_size});
        util::Bytes altered(bytes0.begin(), bytes0.end());
        altered[0] ^= 0x20;
        out.push_back({"P1", util::Frame(std::move(altered)), out[0].payload_size});
        return std::tuple(std::move(wots), std::move(fast), std::move(out));
    };
    const auto requests_of = [](const std::vector<Request>& in, bool slots) {
        std::vector<Pki::VerifyRequest> out;
        for (const auto& r : in) {
            const auto bytes = r.frame.bytes();
            out.push_back({&r.signer, bytes.first(r.payload_size),
                           bytes.subspan(r.payload_size),
                           slots ? r.frame.key_slot() : nullptr});
        }
        return out;
    };
    struct Observed {
        std::vector<std::vector<bool>> verdicts;  // per round
        std::vector<std::pair<std::uint64_t, std::uint64_t>> stats;  // after each round
        std::vector<bool> probe_hits;  // cache contents, probed after the rounds
        bool operator==(const Observed&) const = default;
    };
    // Two rounds over the same requests, then one sequential verify() per
    // request: a hit means its key was in the cache.
    const auto observe = [&](Pki& pki, const std::vector<Request>& in, bool slots) {
        Observed seen;
        const auto requests = requests_of(in, slots);
        for (int round = 0; round < 2; ++round) {
            std::vector<std::uint8_t> verdicts(requests.size(), 0xCD);
            static_assert(sizeof(bool) == 1);
            pki.verify_many(requests, reinterpret_cast<bool*>(verdicts.data()));
            seen.verdicts.emplace_back(verdicts.begin(), verdicts.end());
            const auto stats = pki.verify_cache_stats();
            seen.stats.emplace_back(stats.hits, stats.misses);
        }
        for (const auto& r : requests) {
            const auto before = pki.verify_cache_stats().hits;
            (void)pki.verify(*r.signer, r.message, r.signature);
            seen.probe_hits.push_back(pki.verify_cache_stats().hits > before);
        }
        return seen;
    };

    for (const std::size_t capacity : {std::size_t{0}, std::size_t{3}, std::size_t{8192}}) {
        SCOPED_TRACE(capacity);
        Pki plain_pki;
        plain_pki.set_verify_cache_capacity(capacity);
        const auto plain = build(plain_pki);
        const Observed expected = observe(plain_pki, std::get<2>(plain), false);
        EXPECT_EQ(expected.verdicts[0], (std::vector<bool>{true, true, false, false, true,
                                                           true, true, false}));

        // Slots that start empty, then (second round) hold their keys.
        Pki slot_pki;
        slot_pki.set_verify_cache_capacity(capacity);
        const auto slotted = build(slot_pki);
        const auto& frames = std::get<2>(slotted);
        for (const auto& r : frames) EXPECT_FALSE(r.frame.key_slot()->filled());
        EXPECT_EQ(observe(slot_pki, frames, true), expected);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            // Filled on first use: every registered request's slot once the
            // cache is on; the unregistered signer's never.
            EXPECT_EQ(frames[i].frame.key_slot()->filled(), capacity > 0 && i != 3) << i;
        }
        // A relay in a frame of its own has its own slot, equal bytes or not.
        EXPECT_NE(frames[6].frame.key_slot(), frames[0].frame.key_slot());
        EXPECT_NE(frames[7].frame.key_slot(), frames[0].frame.key_slot());
        EXPECT_EQ(frames[5].frame.key_slot(), frames[0].frame.key_slot());

        // Slots already filled from the start, against a fresh cache
        // holding the same identities and keys.
        Pki filled_pki;
        filled_pki.set_verify_cache_capacity(capacity);
        build(filled_pki);
        EXPECT_EQ(observe(filled_pki, frames, true), expected);
    }
}

// The ragged 16-stream batch hasher must equal Sha256::hash per stream for
// every mix of lengths (empty, sub-block, block-boundary, multi-block).
TEST(CryptoBatch, Sha256StreamsMatchesScalarHash) {
    BackendGuard guard;
    util::Xoshiro256 rng{0x5EEDu};
    std::vector<util::Bytes> streams;
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{55}, std::size_t{56},
          std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{119},
          std::size_t{120}, std::size_t{128}, std::size_t{1000}}) {
        util::Bytes data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        streams.push_back(std::move(data));
    }
    // Pad past one SoA group so the leftover lane-refill path runs too.
    while (streams.size() < 37) {
        util::Bytes data(static_cast<std::size_t>(rng.uniform_int(0, 300)));
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        streams.push_back(std::move(data));
    }

    for (const char* backend : {"scalar", "auto"}) {
        ASSERT_TRUE(sha256_set_backend(backend));
        std::vector<const std::uint8_t*> ptrs(streams.size());
        std::vector<std::size_t> lens(streams.size());
        for (std::size_t i = 0; i < streams.size(); ++i) {
            ptrs[i] = streams[i].data();
            lens[i] = streams[i].size();
        }
        std::vector<Digest> out(streams.size());
        detail::sha256_streams(ptrs.data(), lens.data(), streams.size(), out.data());
        for (std::size_t i = 0; i < streams.size(); ++i) {
            EXPECT_EQ(out[i], Sha256::hash(std::span<const std::uint8_t>(
                                  streams[i].data(), streams[i].size())))
                << backend << " stream=" << i;
        }
    }
}

TEST(CryptoBatch, PkiVerifyCacheHitsAndStaysCorrect) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 42,
                                         SignatureAlgorithm::kMerkleWots, 2);
    const util::Bytes payload = util::to_bytes("payload");
    const util::Bytes signature = signer->sign(payload);

    const auto before = pki.verify_cache_stats();
    EXPECT_TRUE(pki.verify("P1", payload, signature));
    EXPECT_TRUE(pki.verify("P1", payload, signature));
    EXPECT_TRUE(pki.verify("P1", payload, signature));
    const auto after = pki.verify_cache_stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 2u);

    // A tampered signature is a distinct key: cached as false, not served
    // from the genuine entry.
    util::Bytes tampered = signature;
    tampered[0] ^= 0x01;
    EXPECT_FALSE(pki.verify("P1", payload, tampered));
    EXPECT_FALSE(pki.verify("P1", payload, tampered));
    const auto tampered_stats = pki.verify_cache_stats();
    EXPECT_EQ(tampered_stats.misses - after.misses, 1u);
    EXPECT_EQ(tampered_stats.hits - after.hits, 1u);

    // Capacity 0 disables caching (stats freeze).
    pki.set_verify_cache_capacity(0);
    EXPECT_TRUE(pki.verify("P1", payload, signature));
    const auto disabled = pki.verify_cache_stats();
    EXPECT_EQ(disabled.hits, tampered_stats.hits);
    EXPECT_EQ(disabled.misses, tampered_stats.misses);
}

}  // namespace
}  // namespace dlsbl::crypto

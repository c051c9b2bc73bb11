#include "crypto/mss.hpp"

#include <gtest/gtest.h>

#include "crypto/pki.hpp"
#include "util/bytes.hpp"

namespace dlsbl::crypto {
namespace {

Digest seed(int n) { return Sha256::hash("mss-test-seed-" + std::to_string(n)); }

TEST(Mss, SignVerifyAllLeaves) {
    MssKeyPair key(seed(1), 3);  // 8 signatures
    EXPECT_EQ(key.capacity(), 8u);
    for (int i = 0; i < 8; ++i) {
        const util::Bytes msg = util::to_bytes("message-" + std::to_string(i));
        const MssSignature sig = key.sign(msg);
        EXPECT_EQ(sig.leaf_index, static_cast<std::uint64_t>(i));
        EXPECT_TRUE(MssKeyPair::verify(key.public_key(), msg, sig)) << i;
    }
    EXPECT_EQ(key.signatures_used(), 8u);
}

TEST(Mss, ExhaustionThrows) {
    MssKeyPair key(seed(2), 1);  // 2 signatures
    const util::Bytes msg = util::to_bytes("x");
    (void)key.sign(msg);
    (void)key.sign(msg);
    EXPECT_THROW(key.sign(msg), std::length_error);
}

TEST(Mss, RejectsTamperedMessage) {
    MssKeyPair key(seed(3), 2);
    const util::Bytes msg = util::to_bytes("the bid vector");
    const MssSignature sig = key.sign(msg);
    util::Bytes tampered = msg;
    tampered[0] ^= 0x01;
    EXPECT_FALSE(MssKeyPair::verify(key.public_key(), tampered, sig));
}

TEST(Mss, RejectsWrongRoot) {
    MssKeyPair alice(seed(4), 2);
    MssKeyPair bob(seed(5), 2);
    const util::Bytes msg = util::to_bytes("m");
    const MssSignature sig = alice.sign(msg);
    EXPECT_FALSE(MssKeyPair::verify(bob.public_key(), msg, sig));
}

TEST(Mss, RejectsLeafIndexMismatch) {
    MssKeyPair key(seed(6), 2);
    const util::Bytes msg = util::to_bytes("m");
    MssSignature sig = key.sign(msg);
    sig.leaf_index = 2;  // auth path still says 0
    EXPECT_FALSE(MssKeyPair::verify(key.public_key(), msg, sig));
}

TEST(Mss, RejectsSubstitutedOneTimeKey) {
    // An attacker cannot swap in its own OTS key: the Merkle path won't bind.
    MssKeyPair victim(seed(7), 2);
    MssKeyPair attacker(seed(8), 2);
    const util::Bytes msg = util::to_bytes("pay me everything");
    MssSignature forged = attacker.sign(msg);
    // Keep the attacker's valid OTS but claim the victim's tree.
    EXPECT_FALSE(MssKeyPair::verify(victim.public_key(), msg, forged));
}

TEST(Mss, SerializationRoundTrip) {
    MssKeyPair key(seed(9), 3);
    const util::Bytes msg = util::to_bytes("wire format");
    (void)key.sign(msg);  // burn leaf 0 so index is non-trivial
    const MssSignature sig = key.sign(msg);
    const auto parsed = MssSignature::deserialize(sig.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->leaf_index, 1u);
    EXPECT_TRUE(MssKeyPair::verify(key.public_key(), msg, *parsed));
}

TEST(Mss, DeserializeRejectsGarbage) {
    EXPECT_FALSE(MssSignature::deserialize(util::Bytes{}).has_value());
    EXPECT_FALSE(MssSignature::deserialize(util::Bytes(64, 0xab)).has_value());
    MssKeyPair key(seed(10), 1);
    util::Bytes wire = key.sign(util::to_bytes("m")).serialize();
    wire.resize(wire.size() / 2);
    EXPECT_FALSE(MssSignature::deserialize(wire).has_value());
}

TEST(Mss, DeterministicPublicKey) {
    MssKeyPair a(seed(11), 2);
    MssKeyPair b(seed(11), 2);
    EXPECT_EQ(a.public_key(), b.public_key());
}

TEST(Mss, HeightZeroSingleSignature) {
    MssKeyPair key(seed(12), 0);
    EXPECT_EQ(key.capacity(), 1u);
    const util::Bytes msg = util::to_bytes("only one");
    const MssSignature sig = key.sign(msg);
    EXPECT_TRUE(MssKeyPair::verify(key.public_key(), msg, sig));
    EXPECT_THROW(key.sign(msg), std::length_error);
}

TEST(Mss, ExcessiveHeightRejected) {
    EXPECT_THROW(MssKeyPair(seed(13), 17), std::invalid_argument);
}

// ---- WOTS leaves: scheme tag and wire layout ---------------------------------

TEST(MssWots, SignVerifyAllLeaves) {
    MssKeyPair key(seed(20), 2);
    for (int i = 0; i < 4; ++i) {
        const util::Bytes msg = util::to_bytes("wots-msg-" + std::to_string(i));
        const MssSignature sig = key.sign(msg);
        EXPECT_TRUE(MssKeyPair::verify(key.public_key(), msg, sig)) << i;
    }
    EXPECT_THROW(key.sign(util::to_bytes("x")), std::length_error);
}

// tag, leaf index, one-time key, length-framed WOTS signature (67 chains),
// length-framed auth path (leaf index, count, one digest per level).
TEST(MssWots, SerializedSizeMatchesLayout) {
    for (unsigned height = 0; height <= 4; ++height) {
        MssKeyPair key(seed(21), height);
        const util::Bytes wire = key.sign(util::to_bytes("size")).serialize();
        EXPECT_EQ(wire.size(), 1 + 8 + 32 + (8 + WotsKeyPair::kChains * 32) +
                                   (8 + 16 + 32 * std::size_t{height}))
            << "height=" << height;
        EXPECT_EQ(wire[0], kMssSchemeTag);
    }
}

// A rewritten tag byte fails the registered verifier, eagerly and batched.
TEST(MssWots, SchemeTagTamperingFails) {
    Pki pki;
    pki.set_verify_cache_capacity(0);  // both paths verify, neither replays a verdict
    auto signer = make_registered_signer(pki, "P1", 23, SignatureAlgorithm::kMerkleWots);
    const util::Bytes msg = util::to_bytes("m");
    const util::Bytes good = signer->sign(msg);
    ASSERT_TRUE(pki.verify("P1", msg, good));
    const Identity id = "P1";
    for (const std::uint8_t tag : {0x00, 0x01, 0x03, 0x7f}) {
        util::Bytes bad = good;
        bad[0] = tag;
        EXPECT_FALSE(pki.verify("P1", msg, bad)) << "tag=" << int{tag};
        const Pki::VerifyRequest request{&id, msg, bad};
        bool verdict = true;
        pki.verify_many(std::span<const Pki::VerifyRequest>(&request, 1), &verdict);
        EXPECT_FALSE(verdict) << "tag=" << int{tag};
    }
}

TEST(MssWots, SerializationRoundTrip) {
    MssKeyPair key(seed(24), 2);
    const util::Bytes msg = util::to_bytes("wire");
    const MssSignature sig = key.sign(msg);
    const util::Bytes wire = sig.serialize();
    const auto parsed = MssSignature::deserialize(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), wire);
    EXPECT_TRUE(MssKeyPair::verify(key.public_key(), msg, *parsed));
}

// Only kMssSchemeTag parses; 1 is the retired tag, 0, 3 and 0x7f never
// existed.
TEST(MssWots, DeserializeRejectsBadSchemeTag) {
    MssKeyPair key(seed(25), 1);
    const util::Bytes wire = key.sign(util::to_bytes("m")).serialize();
    ASSERT_TRUE(MssSignature::deserialize(wire).has_value());
    for (const std::uint8_t tag : {0x00, 0x01, 0x03, 0x7f}) {
        util::Bytes bad = wire;
        bad[0] = tag;
        EXPECT_FALSE(MssSignature::deserialize(bad).has_value()) << "tag=" << int{tag};
    }
}

}  // namespace
}  // namespace dlsbl::crypto

#include "crypto/wots.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace dlsbl::crypto {
namespace {

Digest seed(int n) { return Sha256::hash("wots-test-seed-" + std::to_string(n)); }

TEST(Wots, SignVerifyRoundTrip) {
    WotsKeyPair key(seed(1));
    const util::Bytes msg = util::to_bytes("bid: 1.25 from P3");
    const auto sig = key.sign(msg);
    EXPECT_TRUE(WotsKeyPair::verify(key.public_key(), msg, sig));
}

TEST(Wots, RejectsTamperedMessage) {
    WotsKeyPair key(seed(2));
    const util::Bytes msg = util::to_bytes("payment vector");
    const auto sig = key.sign(msg);
    util::Bytes tampered = msg;
    tampered[3] ^= 0x01;
    EXPECT_FALSE(WotsKeyPair::verify(key.public_key(), tampered, sig));
}

TEST(Wots, RejectsWrongKey) {
    WotsKeyPair alice(seed(3));
    WotsKeyPair bob(seed(4));
    const util::Bytes msg = util::to_bytes("m");
    EXPECT_FALSE(WotsKeyPair::verify(bob.public_key(), msg, alice.sign(msg)));
}

TEST(Wots, RejectsTamperedSignature) {
    WotsKeyPair key(seed(5));
    const util::Bytes msg = util::to_bytes("allocation");
    auto sig = key.sign(msg);
    sig.values[13][0] ^= 0xff;
    EXPECT_FALSE(WotsKeyPair::verify(key.public_key(), msg, sig));
}

TEST(Wots, ChecksumBlocksDigitIncreaseForgery) {
    // The classic WOTS attack without a checksum: advance a revealed chain
    // value by one hash to forge a signature for a digest with that digit
    // incremented. The checksum chains must make this fail.
    WotsKeyPair key(seed(6));
    const util::Bytes msg = util::to_bytes("original message");
    auto sig = key.sign(msg);
    // Advance every value by one step — the forged values correspond to all
    // digits+1, whose checksum differs; verification must fail.
    for (auto& v : sig.values) {
        v = Sha256::hash(std::span<const std::uint8_t>(v.data(), v.size()));
    }
    EXPECT_FALSE(WotsKeyPair::verify(key.public_key(), msg, sig));
}

TEST(Wots, DeterministicFromSeed) {
    WotsKeyPair a(seed(7)), b(seed(7)), c(seed(8));
    EXPECT_EQ(a.public_key(), b.public_key());
    EXPECT_NE(a.public_key(), c.public_key());
}

TEST(Wots, SerializationRoundTrip) {
    WotsKeyPair key(seed(9));
    const util::Bytes msg = util::to_bytes("wire");
    const auto sig = key.sign(msg);
    const util::Bytes wire = sig.serialize();
    EXPECT_EQ(wire.size(), WotsKeyPair::kChains * 32);
    const auto parsed = WotsKeyPair::Signature::deserialize(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(WotsKeyPair::verify(key.public_key(), msg, *parsed));
    EXPECT_FALSE(WotsKeyPair::Signature::deserialize(util::Bytes(10, 0)).has_value());
}

TEST(Wots, ManyMessages) {
    // One-time keys, but signing different messages with different keys must
    // all verify (exercise many digit patterns).
    for (int i = 0; i < 20; ++i) {
        WotsKeyPair key(seed(100 + i));
        const util::Bytes msg = util::to_bytes("message #" + std::to_string(i));
        EXPECT_TRUE(WotsKeyPair::verify(key.public_key(), msg, key.sign(msg))) << i;
    }
}

TEST(Wots, EmptyMessage) {
    WotsKeyPair key(seed(10));
    const util::Bytes empty;
    EXPECT_TRUE(WotsKeyPair::verify(key.public_key(), empty, key.sign(empty)));
}

}  // namespace
}  // namespace dlsbl::crypto

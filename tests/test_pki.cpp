#include "crypto/pki.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace dlsbl::crypto {
namespace {

class PkiTest : public ::testing::TestWithParam<SignatureAlgorithm> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PkiTest,
                         ::testing::Values(SignatureAlgorithm::kMerkleWots,
                                           SignatureAlgorithm::kFast),
                         [](const auto& param_info) -> std::string {
                             return param_info.param == SignatureAlgorithm::kMerkleWots
                                        ? "MerkleWots"
                                        : "Fast";
                         });

TEST_P(PkiTest, SignedMessageVerifies) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 42, GetParam(), 2);
    const SignedMessage msg = sign_message(*signer, "P1", util::to_bytes("bid 1.5"));
    EXPECT_TRUE(msg.verify(pki));
}

TEST_P(PkiTest, TamperedPayloadFails) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 42, GetParam(), 2);
    SignedMessage msg = sign_message(*signer, "P1", util::to_bytes("bid 1.5"));
    msg.payload[0] ^= 0x01;
    EXPECT_FALSE(msg.verify(pki));
}

TEST_P(PkiTest, ForgedSignerIdentityFails) {
    // P2 cannot pass off its signature as P1's (Lemma 5.2's premise: forging
    // is impossible, so framing an honest processor fails verification).
    Pki pki;
    auto p1 = make_registered_signer(pki, "P1", 1, GetParam(), 2);
    auto p2 = make_registered_signer(pki, "P2", 2, GetParam(), 2);
    SignedMessage msg = sign_message(*p2, "P2", util::to_bytes("inconsistent bid"));
    msg.signer = "P1";  // framing attempt
    EXPECT_FALSE(msg.verify(pki));
}

TEST_P(PkiTest, UnregisteredIdentityFails) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 1, GetParam(), 2);
    SignedMessage msg = sign_message(*signer, "P1", util::to_bytes("m"));
    msg.signer = "ghost";
    EXPECT_FALSE(msg.verify(pki));
}

TEST_P(PkiTest, SerializationRoundTrip) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P7", 9, GetParam(), 2);
    const SignedMessage msg = sign_message(*signer, "P7", util::to_bytes("payload"));
    const auto parsed = SignedMessage::deserialize(msg.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->signer, "P7");
    EXPECT_TRUE(parsed->verify(pki));
}

TEST(Pki, DuplicateRegistrationThrows) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 1, SignatureAlgorithm::kFast);
    EXPECT_THROW(make_registered_signer(pki, "P1", 2, SignatureAlgorithm::kFast),
                 std::invalid_argument);
}

TEST(Pki, LookupUnknownThrows) {
    Pki pki;
    EXPECT_FALSE(pki.is_registered("nobody"));
    EXPECT_THROW((void)pki.public_key_of("nobody"), std::out_of_range);
}

TEST(Pki, ParticipantCount) {
    Pki pki;
    EXPECT_EQ(pki.participant_count(), 0u);
    auto a = make_registered_signer(pki, "A", 1, SignatureAlgorithm::kFast);
    auto b = make_registered_signer(pki, "B", 2, SignatureAlgorithm::kFast);
    EXPECT_EQ(pki.participant_count(), 2u);
}

TEST(Pki, DistinctSeedsDistinctKeys) {
    Pki pki;
    auto a = make_registered_signer(pki, "A", 1, SignatureAlgorithm::kFast);
    auto b = make_registered_signer(pki, "B", 1, SignatureAlgorithm::kFast);
    EXPECT_NE(pki.public_key_of("A"), pki.public_key_of("B"));
}

TEST(Pki, CrossAlgorithmSignatureRejected) {
    Pki pki;
    auto merkle = make_registered_signer(pki, "M", 1, SignatureAlgorithm::kMerkleWots, 1);
    auto fast = make_registered_signer(pki, "F", 1, SignatureAlgorithm::kFast);
    const util::Bytes msg = util::to_bytes("m");
    // A fast MAC can never satisfy the Merkle verifier and vice versa.
    EXPECT_FALSE(pki.verify("M", msg, fast->sign(msg)));
    EXPECT_FALSE(pki.verify("F", msg, merkle->sign(msg)));
}

TEST(Pki, DeserializeRejectsTruncated) {
    Pki pki;
    auto signer = make_registered_signer(pki, "P1", 1, SignatureAlgorithm::kFast);
    util::Bytes wire = sign_message(*signer, "P1", util::to_bytes("m")).serialize();
    wire.pop_back();
    EXPECT_FALSE(SignedMessage::deserialize(wire).has_value());
}

}  // namespace
}  // namespace dlsbl::crypto

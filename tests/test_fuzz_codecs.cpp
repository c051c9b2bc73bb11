// Adversarial-input robustness: every wire decoder must survive arbitrary
// bytes (returning nullopt, never crashing or throwing) — a processor can
// feed the referee or its peers anything at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "agents/zoo.hpp"
#include "crypto/merkle.hpp"
#include "crypto/mss.hpp"
#include "crypto/pki.hpp"
#include "obs/metrics.hpp"
#include "protocol/blocks.hpp"
#include "protocol/churn.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/dispatch.hpp"
#include "protocol/messages.hpp"
#include "protocol/runner.hpp"
#include "protocol/settlement.hpp"
#include "util/rng.hpp"

namespace dlsbl {
namespace {

util::Bytes random_bytes(util::Xoshiro256& rng, std::size_t max_len) {
    util::Bytes out(static_cast<std::size_t>(rng.uniform_int(0, max_len)));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return out;
}

template <typename T>
void fuzz_decoder(std::uint64_t seed, std::size_t iterations, std::size_t max_len) {
    util::Xoshiro256 rng{seed};
    for (std::size_t i = 0; i < iterations; ++i) {
        const util::Bytes data = random_bytes(rng, max_len);
        // Must not throw; any parse success must at least round-trip without
        // crashing.
        const auto parsed = T::deserialize(data);
        if (parsed.has_value()) {
            (void)parsed->serialize();
        }
    }
}

TEST(FuzzCodecs, BidBody) { fuzz_decoder<protocol::BidBody>(1, 3000, 128); }
TEST(FuzzCodecs, LoadBatch) { fuzz_decoder<protocol::LoadBatch>(2, 2000, 512); }
TEST(FuzzCodecs, DoubleBidEvidence) {
    fuzz_decoder<protocol::DoubleBidEvidence>(3, 2000, 512);
}
TEST(FuzzCodecs, AllocComplaint) {
    fuzz_decoder<protocol::AllocComplaintBody>(4, 2000, 512);
}
TEST(FuzzCodecs, BidVector) { fuzz_decoder<protocol::BidVectorBody>(5, 2000, 512); }
TEST(FuzzCodecs, MediateRequest) {
    fuzz_decoder<protocol::MediateRequestBody>(6, 3000, 256);
}
TEST(FuzzCodecs, MeterVector) { fuzz_decoder<protocol::MeterVectorBody>(7, 3000, 256); }
TEST(FuzzCodecs, PaymentBody) { fuzz_decoder<protocol::PaymentBody>(8, 3000, 256); }
TEST(FuzzCodecs, TerminateBody) { fuzz_decoder<protocol::TerminateBody>(9, 3000, 256); }
TEST(FuzzCodecs, Block) { fuzz_decoder<protocol::BlockBatch>(10, 2000, 512); }
TEST(FuzzCodecs, SignedMessage) { fuzz_decoder<crypto::SignedMessage>(11, 3000, 512); }
TEST(FuzzCodecs, MerkleProof) { fuzz_decoder<crypto::MerkleProof>(12, 3000, 512); }
TEST(FuzzCodecs, MssSignature) { fuzz_decoder<crypto::MssSignature>(13, 500, 20000); }

// Mutation fuzzing: take a VALID encoding, flip random bytes, and require
// graceful handling — and, for signed content, rejection by verification.
TEST(FuzzCodecs, MutatedSignedMessagesNeverVerify) {
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    protocol::BidBody bid{1, "P1", 1.5};
    const auto msg = crypto::sign_message(*signer, "P1", bid.serialize());
    const util::Bytes wire = msg.serialize();

    util::Xoshiro256 rng{99};
    int accepted_mutants = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        util::Bytes mutated = wire;
        const std::size_t flips = 1 + rng.uniform_int(0, 3);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
            mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        }
        if (mutated == wire) continue;
        const auto parsed = crypto::SignedMessage::deserialize(mutated);
        if (parsed && parsed->verify(pki) && parsed->payload == msg.payload &&
            parsed->signer == msg.signer) {
            ++accepted_mutants;  // only possible if mutation hit redundant bytes
        }
    }
    EXPECT_EQ(accepted_mutants, 0);
}

TEST(FuzzCodecs, TruncatedValidEncodingsRejected) {
    protocol::MeterVectorBody body;
    body.job_id = 5;
    body.phis = {{"P1", 0.25}, {"P2", 0.5}, {"P3", 0.75}};
    const util::Bytes wire = body.serialize();
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const auto parsed = protocol::MeterVectorBody::deserialize(
            std::span<const std::uint8_t>(wire.data(), cut));
        EXPECT_FALSE(parsed.has_value()) << "cut at " << cut;
    }
}

TEST(FuzzCodecs, TruncatedSignedMessagesRejectedOrUnverifiable) {
    // Every prefix of a valid signed-message encoding must either fail to
    // parse or fail verification — no truncation can yield a different
    // accepted message.
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    protocol::PaymentBody payment{3, "P2", {2.75, 1.25}};
    const auto msg = crypto::sign_message(*signer, "P2", payment.serialize());
    const util::Bytes wire = msg.serialize();
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const auto parsed = crypto::SignedMessage::deserialize(
            std::span<const std::uint8_t>(wire.data(), cut));
        if (parsed.has_value()) {
            EXPECT_FALSE(parsed->verify(pki) && parsed->payload == msg.payload)
                << "truncation at " << cut << " still verifies the original payload";
        }
    }
}

TEST(FuzzCodecs, FieldSwappedSignedMessagesNeverVerify) {
    // Splicing fields between two independently valid signed messages — the
    // classic signature-transplant attack — must always fail verification:
    // a signature binds (signer, payload) and covers the identity, so no
    // recombination is valid.
    crypto::Pki pki;
    auto signer1 =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    auto signer2 =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    protocol::BidBody bid1{1, "P1", 1.5};
    protocol::BidBody bid2{1, "P2", 2.5};
    const auto msg1 = crypto::sign_message(*signer1, "P1", bid1.serialize());
    const auto msg2 = crypto::sign_message(*signer2, "P2", bid2.serialize());
    ASSERT_TRUE(msg1.verify(pki));
    ASSERT_TRUE(msg2.verify(pki));

    // Every proper hybrid of the two messages (at least one field taken from
    // the other message) must be rejected.
    for (int mask = 1; mask < 7; ++mask) {
        crypto::SignedMessage hybrid = msg1;
        if (mask & 1) hybrid.signer = msg2.signer;
        if (mask & 2) hybrid.payload = msg2.payload;
        if (mask & 4) hybrid.signature = msg2.signature;
        // mask == 7 is msg2 itself; everything else is a forgery.
        if (mask == 7) continue;
        EXPECT_FALSE(hybrid.verify(pki)) << "hybrid mask " << mask << " verified";
        // The forgery must also survive a serialize/deserialize round trip
        // without crashing, and stay rejected.
        const auto reparsed = crypto::SignedMessage::deserialize(hybrid.serialize());
        ASSERT_TRUE(reparsed.has_value());
        EXPECT_FALSE(reparsed->verify(pki)) << "reparsed hybrid mask " << mask;
    }
}

TEST(FuzzCodecs, MutatedMerkleSignedMessagesNeverVerify) {
    // Same mutation sweep as the kFast variant but over the hash-based
    // (Merkle/MSS) signature path, whose verifier walks attacker-controlled
    // tree proofs — it must reject without crashing on every mutant.
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P3", 4, crypto::SignatureAlgorithm::kMerkleWots);
    protocol::TerminateBody body{"offense (iii)", {"P2"}};
    const auto msg = crypto::sign_message(*signer, "P3", body.serialize());
    ASSERT_TRUE(msg.verify(pki));
    const util::Bytes wire = msg.serialize();

    util::Xoshiro256 rng{123};
    int accepted_mutants = 0;
    for (int trial = 0; trial < 300; ++trial) {
        util::Bytes mutated = wire;
        const std::size_t flips = 1 + rng.uniform_int(0, 3);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
            mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        }
        if (mutated == wire) continue;
        const auto parsed = crypto::SignedMessage::deserialize(mutated);
        if (parsed && parsed->verify(pki) && parsed->payload == msg.payload &&
            parsed->signer == msg.signer) {
            ++accepted_mutants;
        }
    }
    EXPECT_EQ(accepted_mutants, 0);
}

TEST(FuzzCodecs, StructuredMutationsOfBodiesHandledGracefully) {
    // Structured mutations of a valid MeterVectorBody encoding: byte flips,
    // chunk deletions, chunk duplications and length-prefix-style splices.
    // The decoder may accept or reject, but an accepted mutant must
    // round-trip and never crash downstream serialization.
    protocol::MeterVectorBody body;
    body.job_id = 11;
    body.phis = {{"P1", 0.2}, {"P2", 0.4}, {"P3", 0.6}, {"P4", 0.8}};
    const util::Bytes wire = body.serialize();

    util::Xoshiro256 rng{321};
    for (int trial = 0; trial < 1500; ++trial) {
        util::Bytes mutated = wire;
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // delete a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, mutated.size() - start));
                mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                              mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
                break;
            }
            case 2: {  // duplicate a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, std::min<std::size_t>(16, mutated.size() - start)));
                util::Bytes chunk(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                                  mutated.begin() +
                                      static_cast<std::ptrdiff_t>(start + len));
                mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                               chunk.begin(), chunk.end());
                break;
            }
            default: {  // splice the tail of a second valid encoding
                protocol::MeterVectorBody other;
                other.job_id = 12;
                other.phis = {{"P9", 0.9}};
                const util::Bytes donor = other.serialize();
                const std::size_t cut = static_cast<std::size_t>(
                    rng.uniform_int(0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(), donor.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        const auto parsed = protocol::MeterVectorBody::deserialize(mutated);
        if (parsed.has_value()) {
            (void)parsed->serialize();
        }
    }
}

// ---- churn-plan and churn-message codecs ------------------------------------

TEST(FuzzCodecs, ChurnPlan) { fuzz_decoder<protocol::ChurnPlan>(15, 3000, 512); }
TEST(FuzzCodecs, ExcludeBody) { fuzz_decoder<protocol::ExcludeBody>(16, 3000, 256); }
TEST(FuzzCodecs, ReallocBody) { fuzz_decoder<protocol::ReallocBody>(17, 3000, 256); }

protocol::ChurnPlan rich_plan() {
    protocol::ChurnPlan plan;
    plan.events = {{"P3", 0.1, protocol::ChurnEventKind::kCrash},
                   {"P3", 0.5, protocol::ChurnEventKind::kRestart},
                   {"P2", 0.2, protocol::ChurnEventKind::kCrash},
                   {"P2", 0.9, protocol::ChurnEventKind::kRestartStale}};
    plan.losses = {{"P1", 0.2, 0.4}, {"P4", 0.0, 0.05}};
    plan.delays = {{"P1", 0.0, 0.1, 0.05}};
    plan.policy = {0.4, 0.04, 2.0, 0.2};
    return plan;
}

TEST(FuzzCodecs, ChurnPlanStructuredMutationsHandledGracefully) {
    // Same structured-mutation sweep as the wire bodies: flips, chunk
    // deletions, duplications and cross-encoding splices of a valid plan
    // encoding. The decoder may accept or reject; an accepted mutant must
    // re-serialize canonically (encode(decode(x)) is a fixed point).
    const util::Bytes wire = rich_plan().serialize();
    protocol::ChurnPlan donor_plan;
    donor_plan.events = {{"P9", 3.0, protocol::ChurnEventKind::kCrash}};
    const util::Bytes donor = donor_plan.serialize();

    util::Xoshiro256 rng{654};
    for (int trial = 0; trial < 2000; ++trial) {
        util::Bytes mutated = wire;
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // delete a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, mutated.size() - start));
                mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                              mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
                break;
            }
            case 2: {  // duplicate a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, std::min<std::size_t>(16, mutated.size() - start)));
                util::Bytes chunk(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                                  mutated.begin() +
                                      static_cast<std::ptrdiff_t>(start + len));
                mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                               chunk.begin(), chunk.end());
                break;
            }
            default: {  // splice the tail of a second valid encoding
                const std::size_t cut = static_cast<std::size_t>(
                    rng.uniform_int(0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(),
                               donor.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        const auto parsed = protocol::ChurnPlan::deserialize(mutated);
        if (parsed.has_value()) {
            const util::Bytes first = parsed->serialize();
            const auto reparsed = protocol::ChurnPlan::deserialize(first);
            ASSERT_TRUE(reparsed.has_value());
            EXPECT_EQ(reparsed->serialize(), first);
        }
    }
}

TEST(FuzzCodecs, ChurnPlanSpecRoundTripsAndSurvivesGarbage) {
    const protocol::ChurnPlan plan = rich_plan();
    const auto parsed = protocol::ChurnPlan::parse(plan.spec());
    ASSERT_TRUE(parsed.has_value()) << plan.spec();
    EXPECT_EQ(parsed->serialize(), plan.serialize());

    // Corrupted spec text must never crash the parser; accepted text must
    // round-trip through spec() again.
    const std::string spec = plan.spec();
    util::Xoshiro256 rng{777};
    for (int trial = 0; trial < 2000; ++trial) {
        std::string mutated = spec;
        const int op = static_cast<int>(rng.uniform_int(0, 2));
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
        if (op == 0) {
            mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
        } else if (op == 1) {
            mutated.erase(pos, 1 + static_cast<std::size_t>(rng.uniform_int(0, 5)));
        } else {
            mutated.insert(pos, std::string(1, static_cast<char>(rng.uniform_int(32, 126))));
        }
        const auto reparsed = protocol::ChurnPlan::parse(mutated);
        if (reparsed.has_value()) {
            const auto again = protocol::ChurnPlan::parse(reparsed->spec());
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->serialize(), reparsed->serialize());
        }
    }
    // Pure garbage.
    for (int trial = 0; trial < 500; ++trial) {
        std::string junk(static_cast<std::size_t>(rng.uniform_int(0, 64)), '\0');
        for (auto& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
        (void)protocol::ChurnPlan::parse(junk);
    }
}

TEST(FuzzCodecs, PartialMeterSettlementNeverCrashes) {
    // Mid-run churn hands the settlement partial information: meters missing
    // for dead processors, excluded processors, counts that a reallocation
    // moved, arbitrary subsets thereof. The settlement must stay total:
    // full-size vector, zeros for the excluded, no throw for any subset
    // combination. Callers hold a bid for every processor not excluded, so
    // a processor without one is an excluded one here.
    util::Xoshiro256 rng{888};
    constexpr std::size_t m = 4;
    for (int trial = 0; trial < 2000; ++trial) {
        protocol::SettlementInputs inputs;
        inputs.kind = trial % 2 == 0 ? dlt::NetworkKind::kNcpFE
                                     : dlt::NetworkKind::kNcpNFE;
        inputs.z = rng.uniform(0.05, 0.5);
        inputs.block_count = 120;
        std::vector<std::uint8_t> excluded(m, 0);
        std::vector<double> bids(m, 0.0);
        std::vector<std::optional<std::size_t>> final_counts(m);
        std::vector<std::optional<double>> phi(m);
        for (std::size_t j = 0; j < m; ++j) {
            if (rng.uniform() < 0.25) excluded[j] = 1;
        }
        for (std::size_t j = 0; j < m; ++j) {
            if (excluded[j] != 0) continue;
            if (rng.uniform() < 0.9) {
                bids[j] = rng.uniform(0.5, 3.0);
            } else {
                excluded[j] = 1;
            }
            if (rng.uniform() < 0.8) {
                final_counts[j] = static_cast<std::size_t>(rng.uniform_int(0, 120));
            }
            if (rng.uniform() < 0.7) phi[j] = rng.uniform(0.0, 2.0);
        }
        std::vector<std::size_t> prescribed(m, 0);
        if (std::count(excluded.begin(), excluded.end(), 0) > 0) {
            prescribed = protocol::allocate(inputs.kind, inputs.z, inputs.block_count, bids,
                                            excluded)
                             .blocks;
        }
        std::vector<std::size_t> realized(m);
        for (std::size_t j = 0; j < m; ++j) realized[j] = final_counts[j].value_or(prescribed[j]);
        inputs.bids = bids;
        inputs.excluded = excluded;
        inputs.prescribed = prescribed;
        inputs.realized = realized;
        inputs.phi = phi;
        const auto payments = protocol::settle_payments(inputs);
        ASSERT_EQ(payments.size(), m);
        for (std::size_t j = 0; j < m; ++j) {
            if (excluded[j] != 0) {
                EXPECT_EQ(payments[j], 0.0) << "P" << j + 1;
            }
            EXPECT_TRUE(std::isfinite(payments[j])) << "P" << j + 1;
        }
    }
}

TEST(FuzzCodecs, UnknownFrameFloodIsDroppedAndCounted) {
    // A junk-spamming processor broadcasts frames with a wire type outside
    // the MsgType enum. Every receiving endpoint (each peer and the referee)
    // must drop every frame through the one shared dispatcher policy and
    // count it — and the run's economics must be untouched.
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 240;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    constexpr std::size_t kFrames = 3;
    config.strategies[1] = agents::junk_spammer(kFrames);

    std::map<std::string, std::uint64_t> dropped;
    const auto outcome = protocol::run_protocol(
        config, [&](const protocol::RunInternals& internals) {
            auto& registry = internals.context.metrics_registry();
            for (const char* endpoint : {"P1", "P3", "P4", "referee"}) {
                dropped[endpoint] =
                    registry
                        .counter(protocol::kUnknownMessagesMetric,
                                 {{"endpoint", endpoint}, {"type", "9999"}})
                        .value();
            }
        });

    // Junk is noise, not an offense: the run settles exactly like an honest
    // one and nobody is fined.
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
    // Every endpoint except the sender saw and dropped every frame.
    for (const auto& [endpoint, count] : dropped) {
        EXPECT_EQ(count, kFrames) << endpoint;
    }
}

// ---- flat wire codec (protocol/wire.hpp) ------------------------------------

namespace wire = protocol::wire;

// Accept-set equivalence under random bytes: the flat view parser accepts
// exactly what the legacy decoder accepts, and every accepted input is
// canonical — flat_encode of the legacy decode reproduces the input bytes
// (so the two codecs cannot drift on anything either of them accepts).
template <typename Body, typename View>
void fuzz_flat_equivalence(std::uint64_t seed, std::size_t iterations,
                           std::size_t max_len) {
    util::Xoshiro256 rng{seed};
    for (std::size_t i = 0; i < iterations; ++i) {
        const util::Bytes data = random_bytes(rng, max_len);
        const auto legacy = Body::deserialize(data);
        const auto view = View::parse(data);
        ASSERT_EQ(legacy.has_value(), view.has_value())
            << "accept sets diverge on a " << data.size() << "-byte input";
        if (legacy.has_value()) {
            EXPECT_EQ(wire::flat_encode(*legacy), data);
        }
    }
}

TEST(FuzzFlatCodec, BidEquivalence) {
    fuzz_flat_equivalence<protocol::BidBody, wire::BidView>(41, 3000, 128);
}
TEST(FuzzFlatCodec, LoadBatchEquivalence) {
    fuzz_flat_equivalence<protocol::LoadBatch, wire::LoadBatchView>(42, 2000, 512);
}
TEST(FuzzFlatCodec, DoubleBidEvidenceEquivalence) {
    fuzz_flat_equivalence<protocol::DoubleBidEvidence, wire::DoubleBidEvidenceView>(
        43, 2000, 512);
}
TEST(FuzzFlatCodec, AllocComplaintEquivalence) {
    fuzz_flat_equivalence<protocol::AllocComplaintBody, wire::AllocComplaintView>(
        44, 2000, 512);
}
TEST(FuzzFlatCodec, BidVectorEquivalence) {
    fuzz_flat_equivalence<protocol::BidVectorBody, wire::BidVectorView>(45, 2000, 512);
}
TEST(FuzzFlatCodec, MediateRequestEquivalence) {
    fuzz_flat_equivalence<protocol::MediateRequestBody, wire::MediateRequestView>(
        46, 3000, 256);
}
TEST(FuzzFlatCodec, MeterVectorEquivalence) {
    fuzz_flat_equivalence<protocol::MeterVectorBody, wire::MeterVectorView>(47, 3000,
                                                                            256);
}
TEST(FuzzFlatCodec, PaymentEquivalence) {
    fuzz_flat_equivalence<protocol::PaymentBody, wire::PaymentView>(48, 3000, 256);
}
TEST(FuzzFlatCodec, TerminateEquivalence) {
    fuzz_flat_equivalence<protocol::TerminateBody, wire::TerminateView>(49, 3000, 256);
}
TEST(FuzzFlatCodec, ExcludeEquivalence) {
    fuzz_flat_equivalence<protocol::ExcludeBody, wire::ExcludeView>(50, 3000, 256);
}
TEST(FuzzFlatCodec, ReallocEquivalence) {
    fuzz_flat_equivalence<protocol::ReallocBody, wire::ReallocView>(51, 3000, 256);
}
TEST(FuzzFlatCodec, SignedMessageEquivalence) {
    fuzz_flat_equivalence<crypto::SignedMessage, wire::SignedMessageView>(52, 3000,
                                                                          512);
}

// A zoo of representative bodies — honest values plus the deviant shapes
// the strategy zoo produces (empty vectors, mutated bids, termination
// verdicts, churn exclusions/reallocations) and codec edge cases (empty
// strings, zero counts, negative and subnormal doubles).
std::vector<util::Bytes> body_zoo() {
    std::vector<util::Bytes> zoo;
    const auto add = [&zoo](const auto& body, const util::Bytes& legacy) {
        const util::Bytes flat = wire::flat_encode(body);
        EXPECT_EQ(flat, legacy) << "flat_encode diverges from serialize()";
        zoo.push_back(flat);
    };

    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    protocol::DataSet data(3, 16);

    for (const protocol::BidBody& bid :
         {protocol::BidBody{1, "P1", 1.5}, protocol::BidBody{0, "", 0.0},
          protocol::BidBody{~0ull, "P10", -2.5e-308}}) {
        add(bid, bid.serialize());
    }
    protocol::LoadBatch batch;
    batch.origin = "P1";
    batch.blocks = data.batch(std::vector<std::uint64_t>{0, 1, 2, 3});
    add(batch, batch.serialize());
    add(protocol::LoadBatch{}, protocol::LoadBatch{}.serialize());
    // Mediated shape: a wrapping range with a repeat.
    protocol::LoadBatch mediated;
    mediated.origin = "P1";
    mediated.blocks = data.batch(std::vector<std::uint64_t>{14, 15, 0, 14});
    add(mediated, mediated.serialize());

    const auto first = crypto::sign_message(*signer, "P1",
                                            protocol::BidBody{1, "P1", 1.5}.serialize());
    const auto second = crypto::sign_message(
        *signer, "P1", protocol::BidBody{1, "P1", 2.5}.serialize());
    add(first, first.serialize());
    protocol::DoubleBidEvidence evidence{"P1", first, second};
    add(evidence, evidence.serialize());

    protocol::AllocComplaintBody complaint;
    complaint.kind = protocol::AllocComplaintKind::kOverShipped;
    complaint.complainant = "P2";
    complaint.expected_blocks = 5;
    complaint.received_blocks = 9;
    complaint.held_batches = {data.batch(std::vector<std::uint64_t>{5, 6}),
                              data.batch(std::vector<std::uint64_t>{9})};
    add(complaint, complaint.serialize());
    protocol::AllocComplaintBody short_claim;
    short_claim.complainant = "P3";
    short_claim.expected_blocks = 4;
    add(short_claim, short_claim.serialize());

    protocol::BidVectorBody vector;
    vector.submitter = "P1";
    vector.bids = {first, second};
    add(vector, vector.serialize());

    protocol::MediateRequestBody mediate{"P3", {0, 7, 15}};
    add(mediate, mediate.serialize());

    protocol::MeterVectorBody meters;
    meters.job_id = 9;
    meters.phis = {{"P1", 0.25}, {"P2", 1e-300}, {"", -0.0}};
    add(meters, meters.serialize());

    protocol::PaymentBody payment{3, "P2", {2.75, -1.25, 0.0}};
    add(payment, payment.serialize());
    add(protocol::PaymentBody{}, protocol::PaymentBody{}.serialize());

    protocol::TerminateBody verdict{"offense (iii)", {"P2", "P4"}};
    add(verdict, verdict.serialize());
    protocol::ExcludeBody exclude{7, {"P3"}};
    add(exclude, exclude.serialize());
    protocol::ReallocBody realloc_body;
    realloc_body.job_id = 7;
    realloc_body.dead = "P2";
    realloc_body.dead_final = 12;
    realloc_body.extras = {{"P1", 30}, {"P3", 18}};
    add(realloc_body, realloc_body.serialize());
    return zoo;
}

// One decoder pair over one input: accept/reject parity, and canonical
// re-encoding parity when accepted.
template <typename Body, typename View>
void fuzz_pair_accepts(std::span<const std::uint8_t> data) {
    const auto legacy = Body::deserialize(data);
    const auto view = View::parse(data);
    ASSERT_EQ(legacy.has_value(), view.has_value())
        << "accept sets diverge on a " << data.size() << "-byte input";
    if (legacy.has_value()) {
        EXPECT_EQ(wire::flat_encode(*legacy), util::Bytes(data.begin(), data.end()));
    }
}

// The full decoder matrix over one input — every body decoder sees every
// input, exactly like a hostile peer cross-sending message types.
void fuzz_decoder_matrix(std::span<const std::uint8_t> data) {
    fuzz_pair_accepts<protocol::BidBody, wire::BidView>(data);
    fuzz_pair_accepts<protocol::LoadBatch, wire::LoadBatchView>(data);
    fuzz_pair_accepts<protocol::DoubleBidEvidence, wire::DoubleBidEvidenceView>(data);
    fuzz_pair_accepts<protocol::AllocComplaintBody, wire::AllocComplaintView>(data);
    fuzz_pair_accepts<protocol::BidVectorBody, wire::BidVectorView>(data);
    fuzz_pair_accepts<protocol::MediateRequestBody, wire::MediateRequestView>(data);
    fuzz_pair_accepts<protocol::MeterVectorBody, wire::MeterVectorView>(data);
    fuzz_pair_accepts<protocol::PaymentBody, wire::PaymentView>(data);
    fuzz_pair_accepts<protocol::TerminateBody, wire::TerminateView>(data);
    fuzz_pair_accepts<protocol::ExcludeBody, wire::ExcludeView>(data);
    fuzz_pair_accepts<protocol::ReallocBody, wire::ReallocView>(data);
    fuzz_pair_accepts<crypto::SignedMessage, wire::SignedMessageView>(data);
}

TEST(FuzzFlatCodec, EncodersMatchLegacyAcrossBodyZoo) {
    // body_zoo() itself asserts flat_encode(x) == x.serialize() per body.
    EXPECT_GT(body_zoo().size(), 15u);
}

TEST(FuzzFlatCodec, TruncationAndOverLengthRejectedAcrossBodyZoo) {
    // Every strict prefix and every over-length extension of a valid
    // encoding runs through the whole decoder matrix: the pair must agree
    // on accept/reject at every cut (the wire format requires exact
    // exhaustion, so for the matching type both reject).
    for (const util::Bytes& wire_bytes : body_zoo()) {
        for (std::size_t cut = 0; cut < wire_bytes.size(); ++cut) {
            fuzz_decoder_matrix(std::span<const std::uint8_t>(wire_bytes.data(), cut));
        }
        util::Bytes padded = wire_bytes;
        for (std::uint8_t junk : {std::uint8_t{0}, std::uint8_t{0xff}}) {
            padded.push_back(junk);
            fuzz_decoder_matrix(padded);
        }
    }
}

TEST(FuzzFlatCodec, StructuredMutationsKeepAcceptSetsAligned) {
    // Flips, chunk deletions, duplications and cross-encoding splices over
    // the whole body zoo: after every mutation each decoder pair must agree,
    // per type, on accept/reject (crashes and divergence both fail here).
    const std::vector<util::Bytes> zoo = body_zoo();
    util::Xoshiro256 rng{4242};
    for (int trial = 0; trial < 4000; ++trial) {
        util::Bytes mutated = zoo[static_cast<std::size_t>(
            rng.uniform_int(0, zoo.size() - 1))];
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // truncate
                mutated.resize(static_cast<std::size_t>(
                    rng.uniform_int(0, mutated.size() - 1)));
                break;
            }
            case 2: {  // over-length: append junk
                const std::size_t extra =
                    static_cast<std::size_t>(rng.uniform_int(1, 16));
                for (std::size_t k = 0; k < extra; ++k) {
                    mutated.push_back(
                        static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
                }
                break;
            }
            default: {  // transplant: splice the tail of another zoo member
                const util::Bytes& donor = zoo[static_cast<std::size_t>(
                    rng.uniform_int(0, zoo.size() - 1))];
                const std::size_t cut = static_cast<std::size_t>(rng.uniform_int(
                    0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(),
                               donor.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        fuzz_decoder_matrix(mutated);
    }
}

TEST(FuzzFlatCodec, SignedFieldTransplantsNeverVerify) {
    // flat_signed recombinations of two valid envelopes — every proper
    // hybrid of (signer, payload, signature) must parse but fail view
    // verification, exactly like the legacy transplant sweep above.
    crypto::Pki pki;
    auto signer1 =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    auto signer2 =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    const auto msg1 = crypto::sign_message(*signer1, "P1",
                                           protocol::BidBody{1, "P1", 1.5}.serialize());
    const auto msg2 = crypto::sign_message(*signer2, "P2",
                                           protocol::BidBody{1, "P2", 2.5}.serialize());
    EXPECT_EQ(wire::flat_signed(msg1.signer, msg1.payload, msg1.signature),
              msg1.serialize());
    for (int mask = 1; mask < 7; ++mask) {
        const crypto::SignedMessage& s = (mask & 1) ? msg2 : msg1;
        const crypto::SignedMessage& p = (mask & 2) ? msg2 : msg1;
        const crypto::SignedMessage& g = (mask & 4) ? msg2 : msg1;
        const util::Bytes hybrid = wire::flat_signed(s.signer, p.payload, g.signature);
        const auto view = wire::SignedMessageView::parse(hybrid);
        ASSERT_TRUE(view.has_value()) << "hybrid mask " << mask;
        EXPECT_FALSE(view->verify(pki)) << "hybrid mask " << mask << " verified";
        // The view round-trips to the same owned envelope the legacy
        // decoder produces, and that one is rejected too.
        const auto legacy = crypto::SignedMessage::deserialize(hybrid);
        ASSERT_TRUE(legacy.has_value());
        EXPECT_FALSE(legacy->verify(pki));
        EXPECT_EQ(view->to_owned().serialize(), hybrid);
    }
}

TEST(FuzzCodecs, BlockMutationsFailIntegrity) {
    // Any single-byte change to an authentic batch encoding either fails to
    // parse or fails the batch integrity check: ids, payload digests and
    // multiproof siblings are all bound by the root.
    protocol::DataSet data(3, 16);
    const protocol::BlockBatch batch = data.batch(std::vector<std::uint64_t>{5, 6, 7, 8});
    const util::Bytes wire = batch.serialize();
    ASSERT_TRUE(protocol::DataSet::verify_batch(data.root(), data.block_count(), batch));
    util::Xoshiro256 rng{5};
    for (int trial = 0; trial < 500; ++trial) {
        util::Bytes mutated = wire;
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
        mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        const auto parsed = protocol::BlockBatch::deserialize(mutated);
        if (parsed.has_value()) {
            EXPECT_FALSE(
                protocol::DataSet::verify_batch(data.root(), data.block_count(), *parsed))
                << "mutation at " << pos;
        }
    }
}

}  // namespace
}  // namespace dlsbl

// Unit tests for the protocol's building blocks: data blocks, the ledger,
// the meter bank, and the wire-message codecs.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/sha256.hpp"
#include "protocol/blocks.hpp"
#include "protocol/ledger.hpp"
#include "protocol/messages.hpp"
#include "protocol/meter.hpp"

namespace dlsbl::protocol {
namespace {

// ---- DataSet / blocks --------------------------------------------------------

TEST(Blocks, BlocksVerifyAgainstRoot) {
    DataSet data(42, 17);
    for (std::uint64_t id = 0; id < 17; ++id) {
        const Block block = data.block(id);
        EXPECT_TRUE(DataSet::verify_block(data.root(), block)) << id;
    }
}

TEST(Blocks, TamperedPayloadFails) {
    DataSet data(42, 8);
    Block block = data.block(3);
    block.payload_digest[0] ^= 0x01;
    EXPECT_FALSE(DataSet::verify_block(data.root(), block));
}

TEST(Blocks, MismatchedIdFails) {
    DataSet data(42, 8);
    Block block = data.block(3);
    block.id = 4;  // proof still binds index 3
    EXPECT_FALSE(DataSet::verify_block(data.root(), block));
}

TEST(Blocks, DifferentJobsDifferentRoots) {
    EXPECT_NE(DataSet(1, 16).root(), DataSet(2, 16).root());
}

TEST(Blocks, BlockSerializationRoundTrip) {
    DataSet data(7, 9);
    const std::vector<std::uint64_t> ids{5, 6, 7};
    const BlockBatch batch = data.batch(ids);
    const auto parsed = BlockBatch::deserialize(batch.serialize());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->entries.size(), 3u);
    EXPECT_EQ(parsed->entries[0].id, 5u);
    EXPECT_EQ(parsed->proof, batch.proof);
    EXPECT_TRUE(DataSet::verify_batch(data.root(), data.block_count(), *parsed));
}

// ---- block batches ----------------------------------------------------------

// The scalar reference commitment: one SHA-256 per payload and per leaf,
// a padded power-of-two tree folded with hash_pair.
crypto::Digest scalar_root(std::uint64_t job_id, std::size_t block_count) {
    std::vector<crypto::Digest> level;
    for (std::uint64_t id = 0; id < block_count; ++id) {
        util::ByteWriter payload;
        payload.str("job-data");
        payload.u64(job_id);
        payload.u64(id);
        const crypto::Digest digest = crypto::Sha256::hash(payload.data());
        util::ByteWriter leaf;
        leaf.str("block-leaf");
        leaf.u64(id);
        leaf.raw(digest);
        level.push_back(crypto::Sha256::hash(leaf.data()));
    }
    std::size_t padded = 1;
    while (padded < level.size()) padded *= 2;
    level.resize(padded, level.back());
    while (level.size() > 1) {
        std::vector<crypto::Digest> up;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            up.push_back(crypto::Sha256::hash_pair(level[i], level[i + 1]));
        }
        level = std::move(up);
    }
    return level.front();
}

TEST(BlockBatches, BatchedRootsMatchScalarRebuild) {
    for (const std::size_t count : {1u, 2u, 3u, 255u, 256u, 257u, 65536u}) {
        for (const std::uint64_t job : {1u, 1000u}) {
            EXPECT_EQ(DataSet(job, count).root(), scalar_root(job, count))
                << "B=" << count << " job=" << job;
        }
    }
}

TEST(BlockBatches, BatchEntriesMatchSingleBlocks) {
    DataSet data(42, 100);
    const std::vector<std::uint64_t> ids{97, 98, 99, 0, 1};  // a wrapping range
    const BlockBatch batch = data.batch(ids);
    ASSERT_EQ(batch.entries.size(), ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(batch.entries[k].id, ids[k]);
        EXPECT_EQ(batch.entries[k].payload_digest, data.block(ids[k]).payload_digest);
    }
    EXPECT_TRUE(DataSet::verify_batch(data.root(), data.block_count(), batch));
}

TEST(BlockBatches, RepeatedIdsWithEqualDigestsAccepted) {
    DataSet data(42, 64);
    const std::vector<std::uint64_t> ids{3, 4, 3, 5, 4, 3};
    const BlockBatch batch = data.batch(ids);
    EXPECT_EQ(batch.entries.size(), 6u);
    EXPECT_TRUE(DataSet::verify_batch(data.root(), data.block_count(), batch));
}

TEST(BlockBatches, RepeatedIdsWithDifferentDigestsRejected) {
    DataSet data(42, 64);
    const std::vector<std::uint64_t> ids{3, 4, 3};
    for (const std::size_t k : {0u, 2u}) {
        BlockBatch batch = data.batch(ids);
        batch.entries[k].payload_digest[0] ^= 0x01;
        EXPECT_FALSE(DataSet::verify_batch(data.root(), data.block_count(), batch)) << k;
    }
}

TEST(BlockBatches, EmptyBatchAcceptedOnlyWithEmptyProof) {
    DataSet data(42, 64);
    BlockBatch empty;
    EXPECT_TRUE(DataSet::verify_batch(data.root(), data.block_count(), empty));
    EXPECT_TRUE(data.batch({}).proof.empty());
    empty.proof.push_back(data.root());
    EXPECT_FALSE(DataSet::verify_batch(data.root(), data.block_count(), empty));
}

TEST(BlockBatches, TamperedOrForeignBatchesRejected) {
    DataSet data(42, 64);
    const std::vector<std::uint64_t> ids{10, 11, 12, 13, 14};
    const BlockBatch honest = data.batch(ids);
    BlockBatch tampered = honest;
    tampered.entries[2].payload_digest[31] ^= 0x80;
    EXPECT_FALSE(DataSet::verify_batch(data.root(), data.block_count(), tampered));
    BlockBatch renumbered = honest;
    renumbered.entries[0].id = 9;
    EXPECT_FALSE(DataSet::verify_batch(data.root(), data.block_count(), renumbered));
    BlockBatch out_of_range = honest;
    out_of_range.entries[4].id = 64;
    EXPECT_FALSE(DataSet::verify_batch(data.root(), data.block_count(), out_of_range));
    EXPECT_FALSE(DataSet::verify_batch(DataSet(43, 64).root(), 64, honest));
    EXPECT_FALSE(DataSet::verify_batch(data.root(), 65, honest));
    EXPECT_THROW((void)data.batch(std::vector<std::uint64_t>{64}), std::out_of_range);
}

TEST(Blocks, OutOfRangeThrows) {
    DataSet data(7, 9);
    EXPECT_THROW(data.block(9), std::out_of_range);
    EXPECT_THROW(DataSet(7, 0), std::invalid_argument);
}

TEST(Blocks, LargestRemainderSumsExactly) {
    const std::vector<double> alpha{0.405, 0.27, 0.325};
    for (std::size_t total : {10u, 100u, 240u, 999u}) {
        const auto counts = DataSet::blocks_for_allocation(total, alpha);
        std::size_t sum = 0;
        for (std::size_t c : counts) sum += c;
        EXPECT_EQ(sum, total) << total;
    }
}

TEST(Blocks, LargestRemainderProportional) {
    const auto counts =
        DataSet::blocks_for_allocation(1000, {0.5, 0.3, 0.2});
    EXPECT_EQ(counts[0], 500u);
    EXPECT_EQ(counts[1], 300u);
    EXPECT_EQ(counts[2], 200u);
}

TEST(Blocks, LargestRemainderHandlesTinyShares) {
    const auto counts = DataSet::blocks_for_allocation(10, {0.96, 0.02, 0.02});
    std::size_t sum = 0;
    for (std::size_t c : counts) sum += c;
    EXPECT_EQ(sum, 10u);
    EXPECT_GE(counts[0], 9u);
}

// ---- Ledger --------------------------------------------------------------------

TEST(Ledger, TransfersConserveMoney) {
    Ledger ledger;
    ledger.open_account("A");
    ledger.open_account("B");
    ledger.transfer("A", "B", 5.0, "test");
    EXPECT_DOUBLE_EQ(ledger.balance("A"), -5.0);
    EXPECT_DOUBLE_EQ(ledger.balance("B"), 5.0);
    EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
    EXPECT_EQ(ledger.history().size(), 1u);
    EXPECT_EQ(ledger.history()[0].memo, "test");
}

TEST(Ledger, UnknownAccountsThrow) {
    Ledger ledger;
    ledger.open_account("A");
    EXPECT_THROW(ledger.transfer("A", "ghost", 1.0), std::out_of_range);
    EXPECT_THROW((void)ledger.balance("ghost"), std::out_of_range);
    EXPECT_THROW(ledger.open_account("A"), std::invalid_argument);
    EXPECT_FALSE(ledger.has_account("ghost"));
}

// ---- MeterBank -------------------------------------------------------------------

TEST(Meter, RecordsElapsed) {
    MeterBank meters;
    meters.start("P1", 2.0);
    EXPECT_TRUE(meters.started("P1"));
    EXPECT_FALSE(meters.finished("P1"));
    meters.stop("P1", 5.5);
    EXPECT_TRUE(meters.finished("P1"));
    EXPECT_DOUBLE_EQ(meters.elapsed("P1"), 3.5);
    EXPECT_DOUBLE_EQ(meters.started_at("P1"), 2.0);
    EXPECT_EQ(meters.finished_count(), 1u);
}

TEST(Meter, MisuseThrows) {
    MeterBank meters;
    EXPECT_THROW(meters.stop("P1", 1.0), std::logic_error);
    EXPECT_THROW((void)meters.elapsed("P1"), std::logic_error);
    meters.start("P1", 0.0);
    EXPECT_THROW(meters.start("P1", 1.0), std::logic_error);
    meters.stop("P1", 1.0);
    EXPECT_THROW(meters.start("P1", 2.0), std::logic_error);  // meters are one-shot
}

// ---- message codecs ----------------------------------------------------------------

TEST(Messages, BidBodyRoundTrip) {
    BidBody body{7, "P3", 1.25};
    const auto parsed = BidBody::deserialize(body.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->job_id, 7u);
    EXPECT_EQ(parsed->processor, "P3");
    EXPECT_DOUBLE_EQ(parsed->bid, 1.25);
}

TEST(Messages, BidBodyRejectsGarbage) {
    EXPECT_FALSE(BidBody::deserialize(util::to_bytes("nonsense")).has_value());
    EXPECT_FALSE(BidBody::deserialize({}).has_value());
    // Wrong magic string.
    util::ByteWriter w;
    w.str("notbid");
    w.u64(1);
    w.str("P1");
    w.f64(1.0);
    EXPECT_FALSE(BidBody::deserialize(w.data()).has_value());
}

TEST(Messages, PaymentBodyRoundTrip) {
    PaymentBody body;
    body.job_id = 3;
    body.processor = "P2";
    body.payments = {0.5, -0.25, 1.75};
    const auto parsed = PaymentBody::deserialize(body.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payments, body.payments);
}

TEST(Messages, MeterVectorRoundTrip) {
    MeterVectorBody body;
    body.job_id = 9;
    body.phis = {{"P1", 0.5}, {"P2", 0.75}};
    const auto parsed = MeterVectorBody::deserialize(body.serialize());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->phis.size(), 2u);
    EXPECT_EQ(parsed->phis[1].first, "P2");
    EXPECT_DOUBLE_EQ(parsed->phis[1].second, 0.75);
}

TEST(Messages, AllocComplaintRoundTrip) {
    DataSet data(1, 8);
    AllocComplaintBody body;
    body.kind = AllocComplaintKind::kOverShipped;
    body.complainant = "P4";
    body.expected_blocks = 2;
    body.received_blocks = 4;
    body.held_batches = {data.batch(std::vector<std::uint64_t>{0}),
                         data.batch(std::vector<std::uint64_t>{1, 2})};
    const auto parsed = AllocComplaintBody::deserialize(body.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, AllocComplaintKind::kOverShipped);
    ASSERT_EQ(parsed->held_batches.size(), 2u);
    EXPECT_EQ(parsed->held_batches[1].entries.size(), 2u);
    EXPECT_TRUE(DataSet::verify_batch(data.root(), data.block_count(),
                                      parsed->held_batches[1]));
}

TEST(Messages, AllocComplaintRejectsBadKind) {
    AllocComplaintBody body;
    body.kind = AllocComplaintKind::kShortShipped;
    body.complainant = "P1";
    auto wire = body.serialize();
    wire[wire.size() - wire.size()] = 0;  // clobber the kind byte (first byte)
    EXPECT_FALSE(AllocComplaintBody::deserialize(wire).has_value());
}

TEST(Messages, TerminateBodyRoundTrip) {
    TerminateBody body{"double-bid", {"P2", "P5"}};
    const auto parsed = TerminateBody::deserialize(body.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->reason, "double-bid");
    EXPECT_EQ(parsed->fined, (std::vector<std::string>{"P2", "P5"}));
}

TEST(Messages, TruncationRejectedEverywhere) {
    BidBody bid{1, "P1", 2.0};
    auto wire = bid.serialize();
    wire.pop_back();
    EXPECT_FALSE(BidBody::deserialize(wire).has_value());

    PaymentBody pay;
    pay.processor = "P1";
    pay.payments = {1.0, 2.0};
    auto pwire = pay.serialize();
    pwire.resize(pwire.size() - 3);
    EXPECT_FALSE(PaymentBody::deserialize(pwire).has_value());
}

}  // namespace
}  // namespace dlsbl::protocol

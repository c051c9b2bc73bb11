// End-to-end byte-identity gate for the crypto fast paths: a fixed-seed
// protocol run must produce identical traces, public keys, payments, and
// outcomes whether SHA-256 runs on the scalar backend with inline keygen or
// on the dispatch-selected SIMD backend with parallel MSS keygen and the
// verification cache engaged.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "protocol/churn.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/bytes.hpp"

namespace dlsbl {
namespace {

struct RunArtifacts {
    std::string trace;
    std::string public_keys;  // hex, one line per identity
    std::string money;        // payments/fines/utilities rendered to text
    bool operator==(const RunArtifacts&) const = default;
};

RunArtifacts capture_run(const protocol::ProtocolConfig& config) {
    RunArtifacts artifacts;
    std::ostringstream keys;
    const auto outcome = protocol::run_protocol(
        config, [&](const protocol::RunInternals& internals) {
            artifacts.trace = internals.trace().render();
            const auto& pki = internals.context.pki();
            for (const auto& name : internals.context.processor_names()) {
                const auto& pk = pki.public_key_of(name);
                keys << name << ' '
                     << util::to_hex(std::span<const std::uint8_t>(pk.data(), pk.size()))
                     << '\n';
            }
            const auto& user_pk = pki.public_key_of(internals.context.user_name());
            keys << "user "
                 << util::to_hex(
                        std::span<const std::uint8_t>(user_pk.data(), user_pk.size()))
                 << '\n';
        });
    artifacts.public_keys = keys.str();
    std::ostringstream money;
    money << outcome.fine_amount << ' ' << outcome.makespan << ' ' << outcome.user_paid
          << ' ' << outcome.control_messages << ' ' << outcome.control_bytes << '\n';
    for (const auto& p : outcome.processors) {
        money << p.name << ' ' << p.bid << ' ' << p.alpha << ' ' << p.payment << ' '
              << p.fines << ' ' << p.rewards << ' ' << p.utility() << '\n';
    }
    artifacts.money = money.str();
    return artifacts;
}

class ScopedBackend {
 public:
    explicit ScopedBackend(std::string_view name) : saved_(crypto::sha256_backend()) {
        EXPECT_TRUE(crypto::sha256_set_backend(name));
    }
    ~ScopedBackend() { crypto::sha256_set_backend(saved_); }

 private:
    std::string saved_;
};

protocol::ProtocolConfig identity_config(crypto::SignatureAlgorithm algorithm) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpNFE;
    config.z = 0.3;
    config.true_w = {1.0, 2.0, 1.5, 1.2};
    config.block_count = 600;
    config.seed = 42;
    config.signature_algorithm = algorithm;
    config.mss_height = 3;
    return config;
}

TEST(ProtocolCryptoIdentity, ScalarInlineEqualsSimdParallel) {
    auto config = identity_config(crypto::SignatureAlgorithm::kMerkleWots);

    RunArtifacts baseline;
    {
        ScopedBackend scalar("scalar");
        config.crypto_keygen_jobs = 1;
        baseline = capture_run(config);
    }
    ASSERT_FALSE(baseline.trace.empty());
    ASSERT_FALSE(baseline.public_keys.empty());

    RunArtifacts fast;
    {
        ScopedBackend best("auto");
        config.crypto_keygen_jobs = 8;
        fast = capture_run(config);
    }

    EXPECT_EQ(baseline, fast) << "backend=" << crypto::sha256_backend();
}

// Deferred batch signature verification must be OBSERVABLY IDENTICAL to
// eager per-arrival verification: same verdicts at the same sim times, same
// fines, same artifacts — at any batch size. The scenarios pick the paths
// where a wrong flush point would show: honest accumulation, a payment-phase
// verdict, a mid-bidding double-bid dispute, churn (exclusions,
// reallocation, canonical settlement), duplicate bids from a stale rejoin,
// and a bus wider than one batch — the bookkeeping behind the O(1)
// "could the queue complete the round" test.
TEST(ProtocolCryptoIdentity, DeferredBatchVerificationMatchesEager) {
    struct Scenario {
        const char* name;
        std::function<void(protocol::ProtocolConfig&)> tweak;
    };
    const std::vector<Scenario> scenarios = {
        {"honest", [](protocol::ProtocolConfig&) {}},
        {"payment-cheater",
         [](protocol::ProtocolConfig& c) { c.strategies[1] = agents::payment_cheater(); }},
        {"double-bidder",
         [](protocol::ProtocolConfig& c) { c.strategies[2] = agents::inconsistent_bidder(); }},
        {"churn-crash",
         [](protocol::ProtocolConfig& c) {
             c.churn_plan.events = {{"P3", 0.0, protocol::ChurnEventKind::kCrash}};
         }},
        {"stale-rejoin-replay",
         [](protocol::ProtocolConfig& c) {
             // P2 replays its signed bid while the round is still open, so
             // every peer (and the referee) takes the same bid twice.
             c.churn_plan.events = {{"P2", 0.0, protocol::ChurnEventKind::kRestartStale}};
         }},
        {"nfe-crash-before-bid",
         [](protocol::ProtocolConfig& c) {
             // P1 is down before it can bid: excluded at the bid deadline,
             // the round closes over the survivors.
             c.kind = dlt::NetworkKind::kNcpNFE;
             c.churn_plan.events = {{"P1", 0.0, protocol::ChurnEventKind::kCrash}};
         }},
        {"wider-than-a-batch",
         [](protocol::ProtocolConfig& c) {
             // m = 24: a batch of 2 or 16 fills before a round can close,
             // one of 64 never does.
             c.true_w.clear();
             for (int i = 0; i < 24; ++i) c.true_w.push_back(0.8 + 0.05 * i);
             c.strategies.assign(c.true_w.size(), agents::truthful());
         }},
    };
    for (const auto& scenario : scenarios) {
        auto config = identity_config(crypto::SignatureAlgorithm::kMerkleWots);
        config.strategies.assign(config.true_w.size(), agents::truthful());
        scenario.tweak(config);

        config.verify_batch = 1;  // eager baseline
        const RunArtifacts eager = capture_run(config);
        ASSERT_FALSE(eager.trace.empty()) << scenario.name;

        for (const std::size_t batch : {std::size_t{2}, std::size_t{16}, std::size_t{64}}) {
            config.verify_batch = batch;
            EXPECT_EQ(eager, capture_run(config))
                << scenario.name << " diverges at verify_batch=" << batch;
        }
    }
}

// Repeating the identical run must also be stable against itself (guards
// against nondeterminism introduced by the verify cache or thread pool).
TEST(ProtocolCryptoIdentity, RepeatRunsAreStable) {
    auto config = identity_config(crypto::SignatureAlgorithm::kMerkleWots);
    config.crypto_keygen_jobs = 4;
    const auto a = capture_run(config);
    const auto b = capture_run(config);
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dlsbl

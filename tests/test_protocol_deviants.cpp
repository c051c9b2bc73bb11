// Deviation handling: every offense of §4 must be detected, fined, and
// strictly unprofitable (Lemmas 5.1/5.2, Theorem 5.1, Corollary 5.1).
#include "agents/zoo.hpp"
#include "dlt/closed_form.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/dispatch.hpp"
#include "protocol/drivers/drivers.hpp"
#include "protocol/runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlsbl::protocol {
namespace {

ProtocolConfig base_config(dlt::NetworkKind kind = dlt::NetworkKind::kNcpFE) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// ---- offense (i): inconsistent bids ----------------------------------------

TEST(Deviants, InconsistentBidderIsFinedAndRunTerminates) {
    auto config = base_config();
    config.strategies[2] = agents::inconsistent_bidder();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    // Caught right after bidding: the verdict lands while the load is being
    // allocated (the FE load origin may already have begun computing, so
    // the phase marker can read Allocating or Processing).
    EXPECT_LE(outcome.ended_in, Phase::kProcessing);
    EXPECT_GE(outcome.ended_in, Phase::kAllocating);
    EXPECT_TRUE(outcome.processor("P3").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
    // Termination rule: commenced non-deviants first receive α_i w̃_i (their
    // metered φ_i), then the remainder is split evenly (§4).
    double comp_sum = 0.0;
    for (const auto& p : outcome.processors) {
        if (p.name != "P3" && p.commenced_work) comp_sum += p.phi;
    }
    const double share = (outcome.fine_amount - comp_sum) / 3.0;
    for (const auto& p : outcome.processors) {
        if (p.name == "P3") continue;
        const double expected = (p.commenced_work ? p.phi : 0.0) + share;
        EXPECT_NEAR(p.rewards, expected, 1e-9) << p.name;
    }
}

TEST(Deviants, InconsistentBidderUtilityStrictlyNegative) {
    auto config = base_config();
    config.strategies[2] = agents::inconsistent_bidder();
    const auto outcome = run_protocol(config);
    const auto honest = run_protocol(base_config());
    EXPECT_LT(outcome.processor("P3").utility(), 0.0);
    EXPECT_LT(outcome.processor("P3").utility(), honest.processor("P3").utility());
}

// ---- offense (ii): incorrect load assignments -------------------------------

TEST(Deviants, ShortShippingLoFined) {
    auto config = base_config();
    config.strategies[0] = agents::short_shipping_lo();  // P1 is LO for NCP-FE
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P1").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
}

TEST(Deviants, OverShippingLoFined) {
    auto config = base_config();
    config.strategies[0] = agents::over_shipping_lo();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P1").fined);
}

TEST(Deviants, CorruptingLoFined) {
    auto config = base_config();
    config.strategies[0] = agents::corrupting_lo();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P1").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
}

TEST(Deviants, RefusingLoFined) {
    auto config = base_config();
    config.strategies[0] = agents::refusing_lo();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P1").fined);
}

TEST(Deviants, NfeLoDeviationsAlsoCaught) {
    // For NCP-NFE the load origin is P_m.
    auto config = base_config(dlt::NetworkKind::kNcpNFE);
    config.strategies[3] = agents::short_shipping_lo();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P4").fined);
}

// ---- offense (iii): payment-phase cheats ------------------------------------

TEST(Deviants, PaymentCheaterFinedButRunSettles) {
    auto config = base_config();
    config.strategies[1] = agents::payment_cheater();
    const auto outcome = run_protocol(config);
    // Work is complete; payments settle despite the fine.
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P2").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
    EXPECT_GT(outcome.user_paid, 0.0);
    // Correct processors share the collected fine: x·F/(m-x).
    for (const auto& p : outcome.processors) {
        if (p.name == "P2") continue;
        EXPECT_NEAR(p.rewards, outcome.fine_amount / 3.0, 1e-9) << p.name;
    }
}

TEST(Deviants, ContradictoryPayerFined) {
    auto config = base_config();
    config.strategies[3] = agents::contradictory_payer();
    const auto outcome = run_protocol(config);
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P4").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
}

TEST(Deviants, PaymentCheaterStillPaidCorrectQ) {
    // The referee recomputes and settles the *correct* vector; the cheat
    // only adds a fine on top.
    auto config = base_config();
    config.strategies[1] = agents::payment_cheater();
    const auto cheat = run_protocol(config);
    const auto honest = run_protocol(base_config());
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(cheat.processors[i].payment, honest.processors[i].payment, 1e-9);
    }
}

// ---- offense (iv): manipulated bid vectors ----------------------------------

TEST(Deviants, BidVectorTampererFined) {
    auto config = base_config();
    config.strategies[2] = agents::bid_vector_tamperer();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P3").fined);
}

// ---- offense (v): unsubstantiated claims ------------------------------------

TEST(Deviants, FalseAccuserFined) {
    auto config = base_config();
    config.strategies[1] = agents::false_accuser();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P2").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
    // The falsely accused processor is NOT fined (Lemma 5.2).
    EXPECT_FALSE(outcome.processor("P1").fined);
}

TEST(Deviants, FalseShortClaimerFined) {
    auto config = base_config();
    config.strategies[2] = agents::false_short_claimer();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_TRUE(outcome.processor("P3").fined);
    EXPECT_FALSE(outcome.processor("P1").fined);  // the LO is innocent
}

// ---- Lemma 5.2 / Corollary 5.1 ------------------------------------------------

TEST(Deviants, HonestProcessorsNeverFined) {
    for (const auto& deviant : agents::worker_deviants()) {
        auto config = base_config();
        config.strategies[2] = deviant;
        const auto outcome = run_protocol(config);
        for (const auto& p : outcome.processors) {
            if (p.name == "P3") continue;
            EXPECT_FALSE(p.fined) << deviant.name << " framed " << p.name;
        }
    }
}

// The key seed of processor `i` in a hosted run.
std::uint64_t signer_seed(const ProtocolConfig& config, std::size_t i) {
    return config.seed * 1000 + i;
}

// A run wired like run_protocol, except that processor `index`'s core is
// hosted behind the endpoint `wrap` builds around it.
struct HostedRun {
    std::unique_ptr<Driver> driver;
    std::unique_ptr<RunContext> context;
    std::unique_ptr<RefereeCore> referee;
    std::vector<std::unique_ptr<NodeCore>> nodes;
    std::unique_ptr<Endpoint> host;
};

template <typename Wrap>
HostedRun run_hosted(const ProtocolConfig& config, std::size_t index, Wrap wrap) {
    HostedRun run;
    run.driver = make_sim_driver(config.z, config.control_latency,
                                 config.control_seconds_per_byte, config.churn_plan);
    run.context = std::make_unique<RunContext>(run.driver->clock(),
                                               run.driver->transport(), config);
    RunContext& context = *run.context;
    std::vector<std::unique_ptr<crypto::Signer>> signers;
    for (std::size_t i = 0; i < context.processor_count(); ++i) {
        signers.push_back(crypto::make_registered_signer(
            context.pki(), context.processor_names()[i], signer_seed(config, i),
            config.signature_algorithm, config.mss_height, config.crypto_keygen_jobs));
    }
    run.referee = std::make_unique<RefereeCore>(context);
    run.driver->attach(*run.referee);
    context.set_referee(*run.referee);
    context.set_expected_workers(context.processor_count());
    for (std::size_t i = 0; i < context.processor_count(); ++i) {
        run.nodes.push_back(std::make_unique<NodeCore>(context, i, std::move(signers[i]),
                                                       config.strategies[i]));
    }
    run.host = wrap(context, *run.nodes[index]);
    for (std::size_t i = 0; i < run.nodes.size(); ++i) {
        if (i == index) {
            run.driver->attach(*run.host);
        } else {
            run.driver->attach(*run.nodes[i]);
        }
    }
    run.driver->start();
    run.driver->run();
    return run;
}

// P3 runs a real NodeCore but also relays every load delivery it receives
// to `target`, as if the LO had shipped the target a second batch.
class RelayingPeer final : public Endpoint {
 public:
    RelayingPeer(RunContext& context, NodeCore& core, std::string target)
        : Endpoint(core.name()), ctx_(context), core_(core), target_(std::move(target)) {}

    void on_start() override { core_.on_start(); }
    void on_message(const WireMessage& message) override {
        core_.on_message(message);
        if (message.type == to_wire(MsgType::kLoadDelivery)) {
            // The delivered frame itself, not a copy of its bytes.
            ctx_.transport().unicast(name(), target_, message.type, message.frame);
        }
    }

 private:
    RunContext& ctx_;
    NodeCore& core_;
    std::string target_;
};

TEST(Deviants, RelayedDeliveryCannotFrameHonestReceiver) {
    // Lemma 5.2: a peer that is not the LO relays its authentic batch to P2.
    // Counted as load, it would push P2 past its assignment into an
    // over-shipment complaint the bus witness refutes, fining P2.
    const HostedRun run =
        run_hosted(base_config(), 2, [](RunContext& context, NodeCore& core) {
            return std::make_unique<RelayingPeer>(context, core, "P2");
        });
    EXPECT_FALSE(run.context->terminated()) << run.context->termination_reason();
    EXPECT_TRUE(run.referee->settled());
    EXPECT_FALSE(run.referee->fines().contains("P2"));
    EXPECT_TRUE(run.referee->fines().empty());
    EXPECT_EQ(run.nodes[1]->blocks_received(), run.nodes[1]->blocks_assigned());
}

// P3 runs a real NodeCore, but before bidding it sends the referee an empty
// double-bid accusation, which arrives before F is posted.
class EarlyAccuser final : public Endpoint {
 public:
    EarlyAccuser(RunContext& context, NodeCore& core)
        : Endpoint(core.name()), ctx_(context), core_(core) {}

    void on_start() override {
        ctx_.transport().unicast(name(), ctx_.referee_name(),
                                 to_wire(MsgType::kAccuseDoubleBid),
                                 wire::flat_encode(DoubleBidEvidence{}));
        core_.on_start();
    }
    void on_message(const WireMessage& message) override { core_.on_message(message); }

 private:
    RunContext& ctx_;
    NodeCore& core_;
};

TEST(Deviants, EarlyAccusationWaitsForTheFine) {
    // Every verdict levies F, so the referee judges the accusation once F is
    // posted instead of throwing out of the run. The evidence proves
    // nothing: only the accuser is fined (Lemma 5.2).
    HostedRun run;
    ASSERT_NO_THROW(run = run_hosted(base_config(), 2, [](RunContext& context, NodeCore& core) {
        return std::make_unique<EarlyAccuser>(context, core);
    }));
    EXPECT_TRUE(run.context->terminated());
    EXPECT_EQ(run.context->termination_reason(), "unfounded double-bid accusation by P3");
    EXPECT_EQ(run.referee->fines().size(), 1u);
    EXPECT_TRUE(run.referee->fines().contains("P3"));
}

// P3 runs a real NodeCore, but first broadcasts a validly signed bid of
// `bid`, signed with a twin of its own key.
class OutOfDomainBidder final : public Endpoint {
 public:
    OutOfDomainBidder(RunContext& context, NodeCore& core, double bid)
        : Endpoint(core.name()), ctx_(context), core_(core), bid_(bid) {}

    void on_start() override {
        crypto::Pki twin_registry;
        const auto twin = crypto::make_registered_signer(
            twin_registry, name(), signer_seed(ctx_.config(), 2),
            ctx_.config().signature_algorithm, ctx_.config().mss_height);
        BidBody body;
        body.job_id = ctx_.job_id();
        body.processor = name();
        body.bid = bid_;
        ctx_.transport().broadcast(
            name(), to_wire(MsgType::kBid),
            wire::flat_encode(crypto::sign_message(*twin, name(), wire::flat_encode(body))));
        core_.on_start();
    }
    void on_message(const WireMessage& message) override { core_.on_message(message); }

 private:
    RunContext& ctx_;
    NodeCore& core_;
    double bid_;
};

TEST(Deviants, NonFiniteBidIsDiscarded) {
    // §4 Bidding: a bid that is not a rate is discarded like a malformed
    // one, so P3's genuine bid that follows is its first bid. The run
    // settles on it and nobody is fined.
    const ProtocolConfig config = base_config();
    const auto honest_alpha = dlt::optimal_allocation({config.kind, config.z, config.true_w});
    for (const double bid : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, -1.0,
                             std::numeric_limits<double>::infinity()}) {
        HostedRun run;
        ASSERT_NO_THROW(run = run_hosted(config, 2, [bid](RunContext& context, NodeCore& core) {
            return std::make_unique<OutOfDomainBidder>(context, core, bid);
        })) << "bid=" << bid;
        EXPECT_FALSE(run.context->terminated()) << run.context->termination_reason();
        EXPECT_TRUE(run.referee->settled()) << "bid=" << bid;
        EXPECT_TRUE(run.referee->fines().empty()) << "bid=" << bid;
        for (const auto& node : run.nodes) {
            EXPECT_EQ(node->allocation(), honest_alpha) << node->name() << " bid=" << bid;
        }
    }
}

TEST(Deviants, ConfigRejectsBidsOutsideTheRateDomain) {
    for (const double factor : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, -1.0,
                                std::numeric_limits<double>::infinity()}) {
        auto config = base_config();
        config.strategies[2] = agents::misreporter(factor);
        EXPECT_THROW(config.validate(), std::invalid_argument) << "factor=" << factor;
        config.strategies[2] = agents::inconsistent_bidder(1.0, factor);
        EXPECT_THROW(config.validate(), std::invalid_argument) << "factor=" << factor;
    }
    // A finite factor whose bid overflows: 1e308 x w_2 = 2e308 is +inf.
    auto config = base_config();
    config.strategies[1] = agents::misreporter(1e308);
    EXPECT_THROW(config.validate(), std::invalid_argument);
    // The smallest positive double is still a rate.
    config.strategies[1] = agents::misreporter(5e-324);
    EXPECT_NO_THROW(config.validate());
}

TEST(Deviants, ConfigRejectsFinesAndTimingOutsideTheirDomain) {
    // Fines are amounts and control timing is durations: each must be
    // finite and >= 0. A payment cheater makes every run levy a fine.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto cheater_config = [] {
        auto config = base_config();
        config.strategies[2] = agents::payment_cheater();
        return config;
    };
    for (const double value : {nan, -1.0, inf}) {
        std::vector<ProtocolConfig> configs(4, cheater_config());
        configs[0].fine_policy.fixed_fine = value;
        configs[1].fine_policy.safety_factor = value;
        configs[2].control_latency = value;
        configs[3].control_seconds_per_byte = value;
        for (std::size_t k = 0; k < configs.size(); ++k) {
            EXPECT_THROW(configs[k].validate(), std::invalid_argument)
                << "field " << k << " value=" << value;
            EXPECT_THROW(run_protocol(configs[k]), std::invalid_argument)
                << "field " << k << " value=" << value;
        }
    }
    // 0 stays legal for each of them.
    std::vector<ProtocolConfig> zeros(4, cheater_config());
    zeros[0].fine_policy.fixed_fine = 0.0;
    zeros[1].fine_policy.safety_factor = 0.0;
    zeros[2].control_latency = 0.0;
    zeros[3].control_seconds_per_byte = 0.0;
    for (std::size_t k = 0; k < zeros.size(); ++k) {
        EXPECT_NO_THROW(zeros[k].validate()) << "field " << k;
        const auto outcome = run_protocol(zeros[k]);
        EXPECT_TRUE(outcome.processor("P3").fined) << "field " << k;
    }
}

TEST(Deviants, NoRewardsWithoutACheater) {
    const auto outcome = run_protocol(base_config());
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.rewards, 0.0) << p.name;
    }
}

// ---- Theorem 5.1: compliance is utility-maximizing ----------------------------

TEST(Deviants, EveryWorkerDeviationStrictlyUnprofitable) {
    const auto honest = run_protocol(base_config());
    for (const auto& deviant : agents::worker_deviants()) {
        auto config = base_config();
        config.strategies[2] = deviant;
        const auto outcome = run_protocol(config);
        EXPECT_TRUE(outcome.processor("P3").fined) << deviant.name;
        EXPECT_LT(outcome.processor("P3").utility(),
                  honest.processor("P3").utility())
            << deviant.name;
    }
}

TEST(Deviants, EveryLoDeviationStrictlyUnprofitable) {
    const auto honest = run_protocol(base_config());
    for (const auto& deviant : agents::lo_deviants()) {
        auto config = base_config();
        config.strategies[0] = deviant;
        const auto outcome = run_protocol(config);
        EXPECT_TRUE(outcome.processor("P1").fined) << deviant.name;
        EXPECT_LT(outcome.processor("P1").utility(),
                  honest.processor("P1").utility())
            << deviant.name;
    }
}

// ---- monitoring incentives ----------------------------------------------------

TEST(Deviants, SilentObserversLetDeviationSlipButEarnNothing) {
    // If *nobody* reports, an inconsistent bid goes unpunished — showing why
    // the reward F/(m-1) matters. (The deviation still corrupts nothing
    // here because all nodes keep the first bid for the allocation.)
    auto config = base_config();
    config.strategies[2] = agents::inconsistent_bidder();
    for (std::size_t i = 0; i < 4; ++i) {
        if (i != 2) config.strategies[i] = agents::silent_observer();
    }
    const auto outcome = run_protocol(config);
    EXPECT_FALSE(outcome.processor("P3").fined);
    for (const auto& p : outcome.processors) EXPECT_DOUBLE_EQ(p.rewards, 0.0);
}

TEST(Deviants, SingleReporterSufficesAndCollects) {
    auto config = base_config();
    config.strategies[2] = agents::inconsistent_bidder();
    config.strategies[1] = agents::silent_observer();
    config.strategies[3] = agents::silent_observer();
    // Only P1 monitors.
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.processor("P3").fined);
    // Rewards are split among all non-deviants regardless of who reported.
    EXPECT_GT(outcome.processor("P1").rewards, 0.0);
}

// ---- multiple simultaneous deviants -------------------------------------------

TEST(Deviants, TwoPaymentCheatersBothFined) {
    auto config = base_config();
    config.strategies[1] = agents::payment_cheater();
    config.strategies[3] = agents::payment_cheater();
    const auto outcome = run_protocol(config);
    EXPECT_TRUE(outcome.processor("P2").fined);
    EXPECT_TRUE(outcome.processor("P4").fined);
    EXPECT_EQ(outcome.fined_count(), 2u);
    // Pool 2F split between the 2 correct ones: each gets F.
    EXPECT_NEAR(outcome.processor("P1").rewards, outcome.fine_amount, 1e-9);
}

// ---- fine policy ---------------------------------------------------------------

TEST(Deviants, FixedFinePolicyOverridesBidDerived) {
    auto config = base_config();
    config.fine_policy.fixed_fine = 42.0;
    config.strategies[1] = agents::payment_cheater();
    const auto outcome = run_protocol(config);
    EXPECT_DOUBLE_EQ(outcome.fine_amount, 42.0);
    EXPECT_NEAR(outcome.processor("P2").fines, 42.0, 1e-12);
}

TEST(Deviants, BidDerivedFineHasOffEquilibriumInflationChannel) {
    // Documented wrinkle (EXPERIMENTS.md): with F tied to bids, an
    // overbidder inflates the fine pool — and hence the reward share it
    // collects — when a *different* processor is fined. A user-posted fixed
    // F removes the dominant (F-scaling) part of that channel; a small
    // residual remains because the termination redistribution itself is not
    // incentive-neutral off the equilibrium path (the paper claims nothing
    // about off-path redistribution incentives).
    auto config = base_config();
    config.strategies[3] = agents::false_short_claimer();  // someone else cheats

    auto overbid = config;
    overbid.strategies[1].bid_factor = 2.0;
    const double u_honest = run_protocol(config).processor("P2").utility();
    const double u_overbid = run_protocol(overbid).processor("P2").utility();
    const double gain_bid_derived = u_overbid - u_honest;
    EXPECT_GT(gain_bid_derived, 0.0);  // the channel exists...

    config.fine_policy.fixed_fine = 10.0;
    overbid.fine_policy.fixed_fine = 10.0;
    const double fixed_honest = run_protocol(config).processor("P2").utility();
    const double fixed_overbid = run_protocol(overbid).processor("P2").utility();
    const double gain_fixed = fixed_overbid - fixed_honest;
    // ...and the fixed policy removes the F-scaling component of it.
    EXPECT_LT(gain_fixed, 0.5 * gain_bid_derived);
}

TEST(Deviants, FineExceedsCompensationSum) {
    // The posted F must satisfy F >= Σ_j α_j w̃_j (§4 Bidding).
    auto config = base_config();
    config.strategies[1] = agents::payment_cheater();
    const auto outcome = run_protocol(config);
    double compensation_sum = 0.0;
    for (const auto& p : outcome.processors) compensation_sum += p.alpha * p.exec_rate;
    EXPECT_GE(outcome.fine_amount, compensation_sum);
}

// ---- dispatcher hygiene --------------------------------------------------------

TEST(Deviants, DeviantRunsNeverHitTheUnknownMessagePath) {
    // Every offense in the zoo abuses *known* message kinds; none may leak a
    // frame onto the dispatcher's unknown-type drop path. The drop counter
    // staying unregistered after every deviant run is what guarantees the
    // shared drop policy cannot perturb deviant-run artifacts — only truly
    // out-of-enum wire types (e.g. the junk spammer) ever reach it.
    auto expect_no_drops = [](ProtocolConfig config, const std::string& label) {
        std::string metrics;
        run_protocol(config, [&](const RunInternals& internals) {
            metrics = internals.context.metrics_registry().prometheus_text();
        });
        EXPECT_EQ(metrics.find(kUnknownMessagesMetric), std::string::npos) << label;
    };
    expect_no_drops(base_config(), "honest");
    const auto workers = agents::worker_deviants();
    for (const auto& deviant : workers) {
        auto config = base_config();
        config.strategies[2] = deviant;
        expect_no_drops(config, "worker:" + deviant.name);
    }
    for (const auto& deviant : agents::lo_deviants()) {
        auto config = base_config();
        config.strategies[0] = deviant;
        expect_no_drops(config, "lo:" + deviant.name);
    }
    // The junk spammer is the counterpoint: its frames DO land on the drop
    // path and must be counted there.
    auto config = base_config();
    config.strategies[1] = agents::junk_spammer(2);
    std::string metrics;
    run_protocol(config, [&](const RunInternals& internals) {
        metrics = internals.context.metrics_registry().prometheus_text();
    });
    EXPECT_NE(metrics.find(kUnknownMessagesMetric), std::string::npos);
}

}  // namespace
}  // namespace dlsbl::protocol

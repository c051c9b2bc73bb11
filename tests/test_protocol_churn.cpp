// Churn / fault-injection scenarios (DESIGN.md "Churn model").
//
// Each scenario drives a fixed-seed run through a ChurnPlan and checks two
// things: (1) the protocol-level response — bid-deadline exclusion, the
// processing watchdog, NCP-NFE reallocation of a dead processor's remaining
// blocks, pro-rata settlement, or termination when the load origin dies —
// and (2) that a repeat of the run reproduces the full artifact set (outcome,
// ledger, JSONL, trace, catapult, metrics) byte for byte.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig base_config(dlt::NetworkKind kind = dlt::NetworkKind::kNcpFE) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 240;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// Outcome rendering including the churn fields, so a divergence in any
// ruling shows up as a byte difference here, not just in the trace.
std::string render_outcome(const ProtocolOutcome& outcome) {
    std::ostringstream out;
    out.precision(17);
    out << "terminated=" << outcome.terminated_early
        << " reason=" << outcome.termination_reason
        << " ended_in=" << to_string(outcome.ended_in)
        << " fine=" << outcome.fine_amount << " makespan=" << outcome.makespan
        << " user_paid=" << outcome.user_paid
        << " msgs=" << outcome.control_messages
        << " bytes=" << outcome.control_bytes
        << " dead=" << outcome.churn_dead
        << " realloc=" << outcome.churn_realloc_blocks << "\n";
    out << "excluded=";
    for (const auto& name : outcome.churn_excluded) out << name << ",";
    out << "\n";
    for (const auto& p : outcome.processors) {
        out << p.name << " bid=" << p.bid << " alpha=" << p.alpha
            << " assigned=" << p.blocks_assigned
            << " received=" << p.blocks_received << " extra=" << p.blocks_extra
            << " excluded=" << p.excluded << " phi=" << p.phi
            << " commenced=" << p.commenced_work << " payment=" << p.payment
            << " fines=" << p.fines << " rewards=" << p.rewards
            << " fined=" << p.fined << " cost=" << p.work_cost << "\n";
    }
    return out.str();
}

std::string render_ledger(const Ledger& ledger) {
    std::ostringstream out;
    out.precision(17);
    for (const auto& entry : ledger.history()) {
        out << entry.from << " -> " << entry.to << " " << entry.amount << " ("
            << entry.memo << ")\n";
    }
    return out.str();
}

struct RunCapture {
    ProtocolOutcome result;
    std::string outcome;
    std::string ledger;
    std::string jsonl;
    std::string trace;
    std::string catapult;
    std::string run_metrics;
};

RunCapture capture(const ProtocolConfig& config) {
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream jsonl;
    log.add_sink(std::make_shared<obs::JsonlSink>(jsonl));
    log.set_level(util::LogLevel::Debug);

    RunCapture capture;
    capture.result =
        run_protocol(config, [&](const RunInternals& internals) {
            capture.ledger = render_ledger(internals.context.ledger());
            capture.trace = internals.trace().render();
            capture.catapult = obs::catapult_from_trace(internals.trace());
            capture.run_metrics = internals.context.metrics_registry().prometheus_text();
        });
    log.flush();
    log.reset();
    capture.outcome = render_outcome(capture.result);
    capture.jsonl = jsonl.str();
    return capture;
}

// Runs the config twice, asserts artifact byte-identity, and returns the
// first capture for scenario-level assertions.
RunCapture expect_equivalent(const ProtocolConfig& config, const std::string& label) {
    RunCapture first = capture(config);
    const RunCapture second = capture(config);
    EXPECT_FALSE(first.outcome.empty()) << label;
    EXPECT_FALSE(first.trace.empty()) << label;
    EXPECT_FALSE(first.jsonl.empty()) << label;
    EXPECT_EQ(first.outcome, second.outcome) << label;
    EXPECT_EQ(first.ledger, second.ledger) << label;
    EXPECT_EQ(first.jsonl, second.jsonl) << label;
    EXPECT_EQ(first.trace, second.trace) << label;
    EXPECT_EQ(first.catapult, second.catapult) << label;
    EXPECT_EQ(first.run_metrics, second.run_metrics) << label;
    return first;
}

// ---- crash before bidding: bid-deadline exclusion ---------------------------

TEST(ChurnScenarios, CrashBeforeBidExcludesAndRunSettles) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_equivalent(config, "crash-before-bid");
    const auto& outcome = run.result;

    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P3"});
    EXPECT_TRUE(outcome.processor("P3").excluded);
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.ended_in, Phase::kDone);
    // Exclusion is not an offense: no fines anywhere, and the excluded
    // processor simply earns nothing.
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P3").payment, 0.0);
    EXPECT_EQ(outcome.processor("P3").blocks_assigned, 0u);
    // The survivors split the whole load and all get paid.
    std::size_t assigned = 0;
    for (const auto& p : outcome.processors) assigned += p.blocks_assigned;
    EXPECT_EQ(assigned, config.block_count);
    for (const auto& p : outcome.processors) {
        if (p.name == "P3") continue;
        EXPECT_GT(p.payment, 0.0) << p.name;
    }
    EXPECT_GT(outcome.user_paid, 0.0);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_exclusions_total"), std::string::npos);
}

// ---- crash mid-transfer: the load never arrives; watchdog reallocates -------

TEST(ChurnScenarios, CrashMidTransferTriggersWatchdogReallocation) {
    auto config = base_config();
    // P2 bids at t=0 (healthy), then dies before the LO's shipment reaches
    // it. The referee's processing watchdog notices the unstarted assignee
    // and reallocates every one of its blocks.
    config.churn_plan.events = {{"P2", 0.02, ChurnEventKind::kCrash}};
    config.churn_plan.policy.processing_grace = 0.8;
    const auto run = expect_equivalent(config, "crash-mid-transfer");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_EQ(outcome.churn_dead, "P2");
    const auto& dead = outcome.processor("P2");
    EXPECT_FALSE(dead.commenced_work);
    EXPECT_EQ(outcome.churn_realloc_blocks, dead.blocks_assigned);
    EXPECT_GT(outcome.churn_realloc_blocks, 0u);
    // Everything granted away was really executed by a survivor.
    std::size_t extras = 0;
    for (const auto& p : outcome.processors) extras += p.blocks_extra;
    EXPECT_EQ(extras, outcome.churn_realloc_blocks);
    // The dead processor proved no work, so it is paid nothing — but it is
    // not fined either (death is not an offense).
    EXPECT_EQ(dead.payment, 0.0);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_reallocations_total"), std::string::npos);
}

// ---- crash mid-compute: meter lost; remaining blocks reallocated ------------

TEST(ChurnScenarios, CrashMidComputeReallocatesRemainingBlocks) {
    auto config = base_config();
    config.churn_plan.events = {{"P4", 0.35, ChurnEventKind::kCrash}};
    const auto run = expect_equivalent(config, "crash-mid-compute");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.churn_dead, "P4");
    const auto& dead = outcome.processor("P4");
    // It had commenced, so only the *remaining* blocks move.
    EXPECT_TRUE(dead.commenced_work);
    EXPECT_GT(outcome.churn_realloc_blocks, 0u);
    EXPECT_LT(outcome.churn_realloc_blocks, dead.blocks_assigned);
    std::size_t extras = 0;
    for (const auto& p : outcome.processors) extras += p.blocks_extra;
    EXPECT_EQ(extras, outcome.churn_realloc_blocks);
    // Pro-rata settlement: the dead processor keeps pay for the meter-proved
    // prefix, strictly less than its full-assignment pay would have been.
    EXPECT_GT(dead.payment, 0.0);
    const auto honest = capture(base_config()).result;
    EXPECT_LT(dead.payment, honest.processor("P4").payment);
    EXPECT_EQ(outcome.fined_count(), 0u);
}

// ---- crash after compute: payment never submitted; deadline settlement ------

TEST(ChurnScenarios, SilentAfterComputeStillSettlesAtDeadline) {
    auto config = base_config();
    // P3 computes its full share, then a loss window swallows the meter
    // broadcast and its retransmit. The referee settles canonically at the
    // payment deadline; full work means full pay, and silence is no offense.
    config.churn_plan.losses = {{"P3", 0.4, 5.0}};
    const auto run = expect_equivalent(config, "silent-after-compute");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_TRUE(outcome.churn_dead.empty());
    EXPECT_TRUE(outcome.processor("P3").commenced_work);
    EXPECT_GT(outcome.processor("P3").payment, 0.0);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_GT(outcome.user_paid, 0.0);
    // Identical bids and block division -> identical settled payments to the
    // static run, just reached via the deadline path.
    const auto honest = capture(base_config()).result;
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.payment, honest.processor(p.name).payment) << p.name;
    }
}

// ---- stale rejoin: replayed signed bid is benign ----------------------------

TEST(ChurnScenarios, StaleRejoinReplayIsBenign) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash},
                                {"P3", 0.9, ChurnEventKind::kRestartStale}};
    const auto run = expect_equivalent(config, "stale-rejoin");
    const auto& outcome = run.result;

    // The rejoin replays the *identical* signed bid bytes: peers dedup it,
    // the referee's first-bid-wins recorder ignores it, and crucially nobody
    // mistakes the replay for offense (i) double-bidding.
    EXPECT_FALSE(outcome.terminated_early);
    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P3"});
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P3").payment, 0.0);
    EXPECT_GT(outcome.user_paid, 0.0);
}

// ---- load origin dies: no reallocation possible; clean termination ----------

TEST(ChurnScenarios, LoadOriginCrashTerminatesWithoutFines) {
    auto config = base_config();  // NCP-FE: P1 is the load origin
    config.churn_plan.events = {{"P1", 0.01, ChurnEventKind::kCrash}};
    config.churn_plan.policy.processing_grace = 0.8;
    const auto run = expect_equivalent(config, "lo-crash");
    const auto& outcome = run.result;

    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_NE(outcome.termination_reason.find("churn"), std::string::npos)
        << outcome.termination_reason;
    // Death is not an offense: termination carries no fines and no payouts.
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.user_paid, 0.0);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_terminations_total"), std::string::npos);
}

// ---- delay window: late delivery, same economics ----------------------------

TEST(ChurnScenarios, DelayWindowOnlyShiftsTimingNotMoney) {
    auto config = base_config();
    config.churn_plan.delays = {{"P2", 0.0, 0.1, 0.03}};
    const auto run = expect_equivalent(config, "delay-window");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_TRUE(outcome.churn_dead.empty());
    EXPECT_EQ(outcome.fined_count(), 0u);
    const auto honest = capture(base_config()).result;
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.payment, honest.processor(p.name).payment) << p.name;
        EXPECT_EQ(p.blocks_assigned, honest.processor(p.name).blocks_assigned) << p.name;
    }
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_messages_total"), std::string::npos);
}

// ---- non-finite plan values: refused before the run starts -----------------

TEST(ChurnScenarios, NonFinitePlanValuesAreRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const ChurnEvent crash{"P3", 0.1, ChurnEventKind::kCrash};
    struct Case {
        const char* spec;
        ChurnPlan plan;
    };
    std::vector<Case> cases;
    const auto add = [&](const char* spec, const auto& edit) {
        ChurnPlan plan;
        edit(plan);
        cases.push_back({spec, plan});
    };
    add("crash:P3@nan", [&](ChurnPlan& p) { p.events = {{"P3", nan, ChurnEventKind::kCrash}}; });
    add("crash:P3@inf", [&](ChurnPlan& p) { p.events = {{"P3", inf, ChurnEventKind::kCrash}}; });
    add("crash:P3@0.1;restart:P3@nan", [&](ChurnPlan& p) {
        p.events = {crash, {"P3", nan, ChurnEventKind::kRestart}};
    });
    add("delay:P1@0-0.1+inf", [&](ChurnPlan& p) { p.delays = {{"P1", 0.0, 0.1, inf}}; });
    add("delay:P1@0-0.1+nan", [&](ChurnPlan& p) { p.delays = {{"P1", 0.0, 0.1, nan}}; });
    add("delay:P1@0-nan+0.05", [&](ChurnPlan& p) { p.delays = {{"P1", 0.0, nan, 0.05}}; });
    add("loss:P2@nan-0.4", [&](ChurnPlan& p) { p.losses = {{"P2", nan, 0.4}}; });
    add("loss:P2@0.2-nan", [&](ChurnPlan& p) { p.losses = {{"P2", 0.2, nan}}; });
    add("crash:P3@0.1;policy:bid=nan", [&](ChurnPlan& p) {
        p.events = {crash};
        p.policy.bid_timeout = nan;
    });
    add("crash:P3@0.1;policy:detect=nan", [&](ChurnPlan& p) {
        p.events = {crash};
        p.policy.detection_timeout = nan;
    });
    add("crash:P3@0.1;policy:grace=nan", [&](ChurnPlan& p) {
        p.events = {crash};
        p.policy.processing_grace = nan;
    });
    add("crash:P3@0.1;policy:pay=inf", [&](ChurnPlan& p) {
        p.events = {crash};
        p.policy.payment_timeout = inf;
    });
    for (const auto& c : cases) {
        EXPECT_FALSE(ChurnPlan::parse(c.spec).has_value()) << c.spec;
        auto config = base_config();
        config.churn_plan = c.plan;
        EXPECT_THROW(config.validate(), std::invalid_argument) << c.spec;
    }
    // A window may stay open: an end of +inf parses, validates and settles.
    for (const char* spec : {"delay:P1@0-inf+0.05", "loss:P3@0.4-inf"}) {
        const auto plan = ChurnPlan::parse(spec);
        ASSERT_TRUE(plan.has_value()) << spec;
        auto config = base_config();
        config.churn_plan = *plan;
        EXPECT_NO_THROW(config.validate()) << spec;
        const auto outcome = run_protocol(config);
        EXPECT_FALSE(outcome.terminated_early) << spec;
        EXPECT_GT(outcome.user_paid, 0.0) << spec;
    }
}

// ---- churn + deviant: offenses still caught under failures ------------------

TEST(ChurnScenarios, PaymentCheaterStillFinedUnderChurn) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash}};
    config.strategies[1] = agents::payment_cheater();
    const auto run = expect_equivalent(config, "churn+payment-cheater");
    const auto& outcome = run.result;

    EXPECT_TRUE(outcome.processor("P2").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
    EXPECT_FALSE(outcome.terminated_early);
}

// ---- NCP-NFE flavor: exclusion works when the LO is last --------------------

TEST(ChurnScenarios, NfeCrashBeforeBidExcludes) {
    auto config = base_config(dlt::NetworkKind::kNcpNFE);
    config.churn_plan.events = {{"P2", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_equivalent(config, "nfe-crash-before-bid");
    const auto& outcome = run.result;

    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P2"});
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_GT(outcome.user_paid, 0.0);
}

// ---- Lemma 5.2 under exclusion: only the deviant is fined -------------------

TEST(ChurnScenarios, ExclusionKeepsFinesOnTheDeviant) {
    // A bidder that crashed before bidding is excluded at the deadline and
    // the round closes over the others. F is posted only then, so offense
    // (i) accusations reach the referee before it; and honest bid vectors
    // hold the active bidders only, so allocation disputes must judge them
    // against the round that actually ran.
    const std::vector<Strategy> strategies = {
        agents::truthful(),           agents::underbidder(),
        agents::overbidder(),         agents::slow_executor(),
        agents::masked_overbidder(),  agents::inconsistent_bidder(),
        agents::short_shipping_lo(),  agents::over_shipping_lo(),
        agents::corrupting_lo(),      agents::refusing_lo(),
        agents::payment_cheater(),    agents::contradictory_payer(),
        agents::bid_vector_tamperer(), agents::false_accuser(),
        agents::false_short_claimer(), agents::silent_observer()};
    struct Setting {
        dlt::NetworkKind kind;
        const char* crashed;
        std::vector<std::size_t> positions;
    };
    const std::vector<Setting> settings = {
        {dlt::NetworkKind::kNcpFE, "P4", {0, 2}},
        {dlt::NetworkKind::kNcpNFE, "P2", {0, 3}},
    };
    for (const auto& setting : settings) {
        for (const std::size_t position : setting.positions) {
            for (const auto& deviant : strategies) {
                auto config = base_config(setting.kind);
                config.churn_plan.events = {{setting.crashed, 0.0, ChurnEventKind::kCrash}};
                config.strategies[position] = deviant;
                const std::string name = "P" + std::to_string(position + 1);
                const std::string where = std::string(dlt::to_string(setting.kind)) +
                                          " " + deviant.name + " at " + name;
                ProtocolOutcome outcome;
                ASSERT_NO_THROW(outcome = run_protocol(config)) << where;
                ASSERT_EQ(outcome.churn_excluded,
                          std::vector<std::string>{setting.crashed})
                    << where;
                for (const auto& p : outcome.processors) {
                    if (p.name == name) continue;
                    EXPECT_FALSE(p.fined) << where << " fined " << p.name;
                }

                // Every deviation that happens here is caught. The payment
                // cheaters are fined at settlement; the others end the run
                // with a ruling that names the deviant alone. (LO deviants
                // deviate only as the LO, and the false claimers only as a
                // receiver of load.)
                const bool at_lo = position == (setting.kind == dlt::NetworkKind::kNcpFE
                                                    ? 0
                                                    : config.true_w.size() - 1);
                const std::string& strategy = deviant.name;
                const bool named =
                    strategy == "inconsistent_bidder" || strategy == "false_accuser" ||
                    (at_lo && strategy.ends_with("_lo")) ||
                    (!at_lo && (strategy == "false_short_claimer" ||
                                strategy == "bid_vector_tamperer"));
                if (named || strategy == "payment_cheater" ||
                    strategy == "contradictory_payer") {
                    EXPECT_TRUE(outcome.processor(name).fined) << where;
                    EXPECT_EQ(outcome.fined_count(), 1u) << where;
                }
                if (!named) continue;
                EXPECT_TRUE(outcome.terminated_early) << where;
                EXPECT_NE(outcome.termination_reason.find(name), std::string::npos)
                    << where << ": " << outcome.termination_reason;
                for (const auto& p : outcome.processors) {
                    if (p.name == name) continue;
                    EXPECT_EQ(outcome.termination_reason.find(p.name), std::string::npos)
                        << where << ": " << outcome.termination_reason;
                }
            }
        }
    }
}

}  // namespace
}  // namespace dlsbl::protocol

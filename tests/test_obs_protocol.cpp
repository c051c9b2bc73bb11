// Acceptance tests for the observability layer wired through a full
// protocol run (ISSUE: one honest run with the JSONL sink, profiler and
// catapult export active must produce artifacts that (a) re-parse line by
// line, (b) match the Gantt reconstruction exactly, and (c) agree with
// NetworkMetrics::by_phase()).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "crypto/mss.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/sim_bridge.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/chart.hpp"

namespace dlsbl {
namespace {

protocol::ProtocolConfig honest_config() {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 800;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    return config;
}

struct RunArtifacts {
    std::string jsonl;
    std::string catapult;
    std::string metrics;
    std::vector<util::GanttBar> bars;
    std::map<std::string, sim::PhaseCounters> by_phase;
    bool settled = false;
};

// One honest run with every observability surface active.
RunArtifacts run_with_observability() {
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream jsonl_stream;
    auto sink = std::make_shared<obs::JsonlSink>(jsonl_stream);
    log.add_sink(sink);
    log.set_level(util::LogLevel::Debug);

    auto& profiler = obs::Profiler::instance();
    profiler.reset();
    profiler.set_enabled(true);

    RunArtifacts artifacts;
    const auto outcome = protocol::run_protocol(
        honest_config(), [&](const protocol::RunInternals& internals) {
            const auto& trace = internals.trace();
            artifacts.catapult = obs::catapult_from_trace(trace);
            artifacts.bars = sim::gantt_from_trace(trace);
            artifacts.metrics = internals.context.metrics_registry().prometheus_text();
            artifacts.by_phase = internals.network_metrics().by_phase();
        });
    artifacts.settled = !outcome.terminated_early;

    profiler.set_enabled(false);
    log.flush();
    log.reset();
    artifacts.jsonl = jsonl_stream.str();
    return artifacts;
}

TEST(ObsProtocol, JsonlRoundTripsLineByLine) {
    const auto artifacts = run_with_observability();
    ASSERT_TRUE(artifacts.settled);
    ASSERT_FALSE(artifacts.jsonl.empty());

    std::size_t lines = 0;
    std::istringstream in(artifacts.jsonl);
    for (std::string line; std::getline(in, line);) {
        ++lines;
        const auto doc = obs::json_parse(line);
        ASSERT_TRUE(doc.has_value()) << "line " << lines << ": " << line;
        ASSERT_EQ(doc->kind, obs::JsonValue::Kind::kObject);
        // Schema version is the first field of every record.
        ASSERT_FALSE(doc->object.empty());
        EXPECT_EQ(doc->object[0].first, "v");
        EXPECT_DOUBLE_EQ(doc->object[0].second.number, obs::Event::kSchemaVersion);
        ASSERT_NE(doc->find("component"), nullptr);
        ASSERT_NE(doc->find("event"), nullptr);
    }
    // Phase transitions alone give several debug events.
    EXPECT_GE(lines, 5u);
    EXPECT_NE(artifacts.jsonl.find("\"event\":\"phase_change\""), std::string::npos);
    EXPECT_NE(artifacts.jsonl.find("\"event\":\"run_summary\""), std::string::npos);
}

TEST(ObsProtocol, CatapultSpansMatchGanttBarsExactly) {
    const auto artifacts = run_with_observability();
    const auto doc = obs::json_parse(artifacts.catapult);
    ASSERT_TRUE(doc.has_value());
    const auto* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    // tid -> lane name from the metadata events.
    std::map<double, std::string> lane_of;
    for (const auto& event : events->array) {
        if (event.find("ph")->string == "M" &&
            event.find("name")->string == "thread_name") {
            lane_of[event.find("tid")->number] = event.find("args")->find("name")->string;
        }
    }

    // Every "X" event must equal one Gantt bar: same lane, ts == start,
    // ts + dur == end (exact — both sides come through json_number).
    std::vector<util::GanttBar> remaining = artifacts.bars;
    std::size_t spans = 0;
    for (const auto& event : events->array) {
        if (event.find("ph")->string != "X") continue;
        ++spans;
        const std::string& lane = lane_of.at(event.find("tid")->number);
        const double start = event.find("ts")->number / 1e6;
        const double end = start + event.find("dur")->number / 1e6;
        bool matched = false;
        for (auto it = remaining.begin(); it != remaining.end(); ++it) {
            if (it->lane == lane && it->start == start && it->end == end) {
                remaining.erase(it);
                matched = true;
                break;
            }
        }
        EXPECT_TRUE(matched) << lane << " [" << start << ", " << end << "]";
    }
    EXPECT_EQ(spans, artifacts.bars.size());
    EXPECT_TRUE(remaining.empty());
    EXPECT_GE(spans, 4u);  // 3 transfers + >= 1 compute span in the honest run
}

TEST(ObsProtocol, MetricsDumpEqualsNetworkByPhase) {
    const auto artifacts = run_with_observability();
    ASSERT_FALSE(artifacts.by_phase.empty());

    for (const auto& [phase, counters] : artifacts.by_phase) {
        const std::string messages_series = std::string(obs::kControlMessagesMetric) +
                                            "{phase=\"" + phase + "\"} " +
                                            std::to_string(counters.messages);
        const std::string bytes_series = std::string(obs::kControlBytesMetric) +
                                         "{phase=\"" + phase + "\"} " +
                                         std::to_string(counters.bytes);
        EXPECT_NE(artifacts.metrics.find(messages_series), std::string::npos)
            << "missing: " << messages_series << "\n" << artifacts.metrics;
        EXPECT_NE(artifacts.metrics.find(bytes_series), std::string::npos)
            << "missing: " << bytes_series << "\n" << artifacts.metrics;
    }
}

TEST(ObsProtocol, ProfilerSawTheWiredScopes) {
    const auto artifacts = run_with_observability();
    ASSERT_TRUE(artifacts.settled);
    auto& profiler = obs::Profiler::instance();
    // run_with_observability leaves the recorded tree in place (reset is at
    // the *start* of the next run).
    EXPECT_EQ(profiler.total_calls("protocol_run"), 1u);
    EXPECT_EQ(profiler.total_calls("sim_event_loop"), 1u);
    // Each of the m = 4 nodes solves its allocation, its mechanism's
    // allocation and the m leave-one-out rows of its payment vector.
    EXPECT_EQ(profiler.total_calls("allocation_solve"), 4u * (4u + 2u));
    profiler.reset();

    // The hash-based signature scopes only fire under the MSS algorithm
    // (honest_config uses kFast); exercise them directly.
    profiler.set_enabled(true);
    {
        crypto::Digest seed{};
        crypto::MssKeyPair keys(seed, /*height=*/2);
        const std::uint8_t message[] = {1, 2, 3};
        const auto signature = keys.sign(message);
        EXPECT_TRUE(crypto::MssKeyPair::verify(keys.public_key(), message, signature));
    }
    profiler.set_enabled(false);
    EXPECT_EQ(profiler.total_calls("mss_keygen"), 1u);
    EXPECT_EQ(profiler.total_calls("mss_sign"), 1u);
    EXPECT_EQ(profiler.total_calls("mss_verify"), 1u);
    EXPECT_GE(profiler.total_calls("wots_sign"), 1u);
    profiler.reset();
}

// m = 19: the batched payment pass solves 18 rows per node in lane groups
// of 8, 8 and 2, with the load origin's row solved on its own, first
// (NCP-FE) or last (NCP-NFE). Every row still counts as one solve.
TEST(ObsProtocol, HonestRunCountsEveryRowSolved) {
    for (const auto kind : {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE}) {
        auto config = honest_config();
        config.kind = kind;
        config.true_w.clear();
        for (std::size_t i = 0; i < 19; ++i) {
            config.true_w.push_back(0.8 + 0.07 * static_cast<double>((i * 5) % 17));
        }
        auto& profiler = obs::Profiler::instance();
        profiler.reset();
        profiler.set_enabled(true);
        const auto outcome = protocol::run_protocol(config);
        profiler.set_enabled(false);
        EXPECT_FALSE(outcome.terminated_early) << dlt::to_string(kind);
        EXPECT_EQ(profiler.total_calls("allocation_solve"), 19u * (19u + 2u))
            << dlt::to_string(kind);
        profiler.reset();
    }
}

TEST(ObsProtocol, IdenticalSeedsProduceByteIdenticalArtifacts) {
    const auto first = run_with_observability();
    const auto second = run_with_observability();
    EXPECT_EQ(first.jsonl, second.jsonl);
    EXPECT_EQ(first.catapult, second.catapult);
    EXPECT_EQ(first.metrics, second.metrics);
}

TEST(ObsProtocol, JsonlCarriesCausalSpanFields) {
    const auto artifacts = run_with_observability();
    ASSERT_TRUE(artifacts.settled);

    // Collect the span graph from the JSONL: every record's optional
    // trace/span/parent fields (schema v2).
    std::set<double> traces;
    std::set<double> spans;
    std::set<double> parents;
    std::size_t span_begins = 0;
    std::istringstream in(artifacts.jsonl);
    for (std::string line; std::getline(in, line);) {
        const auto doc = obs::json_parse(line);
        ASSERT_TRUE(doc.has_value());
        const auto* trace = doc->find("trace");
        const auto* span = doc->find("span");
        if (span != nullptr) {
            ASSERT_NE(trace, nullptr) << line;  // span implies trace
            traces.insert(trace->number);
            spans.insert(span->number);
            EXPECT_GT(span->number, 0.0);
        }
        if (const auto* parent = doc->find("parent"); parent != nullptr) {
            ASSERT_NE(span, nullptr) << line;  // parent implies span
            parents.insert(parent->number);
        }
        if (const auto* event = doc->find("event");
            event != nullptr && event->string == "span_begin") {
            ++span_begins;
        }
    }
    // One run = one trace id; a real span tree underneath.
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_GE(span_begins, 8u) << "run + phases + per-processor spans";
    // Causal closure: every referenced parent is itself a known span.
    for (const double parent : parents) {
        EXPECT_TRUE(spans.contains(parent)) << "dangling parent " << parent;
    }
    // The tree includes the protocol-level span names.
    for (const char* name :
         {"\"name\":\"run\"", "\"name\":\"phase:Bidding\"", "\"name\":\"msg:bid\"",
          "\"name\":\"verify_blocks\"", "\"name\":\"compute\""}) {
        EXPECT_NE(artifacts.jsonl.find(name), std::string::npos) << name;
    }
}

TEST(ObsProtocol, CatapultRendersSpanTreeAndCrossTrackFlows) {
    const auto artifacts = run_with_observability();
    const auto doc = obs::json_parse(artifacts.catapult);
    ASSERT_TRUE(doc.has_value());
    const auto* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<double, std::size_t> async_begin;  // span id -> count
    std::map<double, std::size_t> async_end;
    std::map<double, std::vector<const obs::JsonValue*>> flows;  // edge id
    for (const auto& event : events->array) {
        const std::string& ph = event.find("ph")->string;
        if (ph == "b") ++async_begin[event.find("id")->number];
        if (ph == "e") ++async_end[event.find("id")->number];
        if (ph == "s" || ph == "f") {
            flows[event.find("id")->number].push_back(&event);
        }
    }
    // Every async span opens and closes exactly once per id.
    ASSERT_GE(async_begin.size(), 8u);
    EXPECT_EQ(async_begin.size(), async_end.size());
    for (const auto& [id, count] : async_begin) {
        EXPECT_EQ(count, 1u) << "span " << id;
        EXPECT_EQ(async_end[id], 1u) << "span " << id;
    }
    // Flow arrows come in s/f pairs that cross tracks (that is their job:
    // sender's ship span -> receiver's verification/compute work).
    ASSERT_FALSE(flows.empty());
    std::size_t cross_track = 0;
    for (const auto& [id, pair] : flows) {
        ASSERT_EQ(pair.size(), 2u) << "edge " << id;
        EXPECT_EQ(pair[0]->find("ph")->string, "s");
        EXPECT_EQ(pair[1]->find("ph")->string, "f");
        if (pair[0]->find("tid")->number != pair[1]->find("tid")->number) {
            ++cross_track;
        }
    }
    EXPECT_GE(cross_track, 3u);  // at least the three load shipments
}

TEST(ObsProtocol, RefereeCountersStayZeroInHonestRuns) {
    std::string metrics;
    protocol::run_protocol(honest_config(),
                           [&](const protocol::RunInternals& internals) {
                               metrics =
                                   internals.context.metrics_registry().prometheus_text();
                           });
    // The referee is passive when nobody cheats: no fines, no disputes.
    EXPECT_EQ(metrics.find("dlsbl_referee_fines_total"), std::string::npos);
    EXPECT_EQ(metrics.find("dlsbl_referee_disputes_opened_total"), std::string::npos);
}

TEST(ObsProtocol, RefereeCountersRecordCheatersVerdict) {
    auto config = honest_config();
    config.strategies.assign(config.true_w.size(), agents::truthful());
    config.strategies[1] = agents::payment_cheater();

    std::string metrics;
    const auto outcome = protocol::run_protocol(
        config, [&](const protocol::RunInternals& internals) {
            metrics = internals.context.metrics_registry().prometheus_text();
        });
    ASSERT_FALSE(outcome.terminated_early);  // payment verdicts do not abort

    EXPECT_NE(metrics.find("dlsbl_referee_fines_total 1"), std::string::npos)
        << metrics;
    EXPECT_NE(
        metrics.find("dlsbl_referee_disputes_opened_total{kind=\"payment\"} 1"),
        std::string::npos)
        << metrics;
    EXPECT_NE(
        metrics.find("dlsbl_referee_disputes_resolved_total{kind=\"payment\"} 1"),
        std::string::npos)
        << metrics;
}

TEST(ObsProtocol, RefereeCountersRecordUnfoundedAccusation) {
    auto config = honest_config();
    config.strategies.assign(config.true_w.size(), agents::truthful());
    config.strategies[2] = agents::false_accuser();

    std::string metrics;
    protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
        metrics = internals.context.metrics_registry().prometheus_text();
    });
    EXPECT_NE(metrics.find("dlsbl_referee_accusations_total{type=\"double-bid\","
                           "verdict=\"unfounded\"} 1"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("dlsbl_referee_fines_total 1"), std::string::npos)
        << metrics;
}

}  // namespace
}  // namespace dlsbl

// Unit tests for the observability layer: JSON escaping/parsing, the
// metrics registry, the scoped profiler, the run manifest, the event log
// sinks, and the trace -> Gantt / catapult converters.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace dlsbl {
namespace {

// ---- JSON -------------------------------------------------------------------

TEST(ObsJson, EscapeBasics) {
    EXPECT_EQ(obs::json_escape("hello"), "\"hello\"");
    EXPECT_EQ(obs::json_escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(obs::json_escape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(obs::json_escape("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\"\\u0001\"");
    EXPECT_EQ(obs::json_escape(std::string("\xff", 1)), "\"\\u00ff\"");
}

TEST(ObsJson, EscapeThenParseIsIdentityOnArbitraryBytes) {
    util::Xoshiro256 rng{0xfeedu};
    for (int round = 0; round < 200; ++round) {
        std::string raw;
        const std::size_t length = rng.uniform_int(0, 64);
        for (std::size_t i = 0; i < length; ++i) {
            raw.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        const std::string literal = obs::json_escape(raw);
        const auto parsed = obs::json_parse(literal);
        ASSERT_TRUE(parsed.has_value()) << "round " << round;
        ASSERT_EQ(parsed->kind, obs::JsonValue::Kind::kString);
        EXPECT_EQ(parsed->string, raw) << "round " << round;
    }
}

TEST(ObsJson, NumberRoundTrips) {
    const double cases[] = {0.0,   -0.0,     1.0,       -1.5,     1e-300,
                            1e300, 1.0 / 3., 0.1 + 0.2, 123456.75};
    for (const double value : cases) {
        const std::string text = obs::json_number(value);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
    }
    // JSON has no inf/nan.
    EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ObsJson, ParserAcceptsStructuresAndPreservesFieldOrder) {
    const auto doc = obs::json_parse(
        R"({"b":1,"a":[true,false,null,"x"],"c":{"n":-2.5e1}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->kind, obs::JsonValue::Kind::kObject);
    ASSERT_EQ(doc->object.size(), 3u);
    EXPECT_EQ(doc->object[0].first, "b");  // insertion order, not sorted
    EXPECT_EQ(doc->object[1].first, "a");
    const auto* a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 4u);
    EXPECT_TRUE(a->array[0].boolean);
    EXPECT_EQ(a->array[2].kind, obs::JsonValue::Kind::kNull);
    const auto* n = doc->find("c")->find("n");
    ASSERT_NE(n, nullptr);
    EXPECT_DOUBLE_EQ(n->number, -25.0);
}

TEST(ObsJson, ParserRejectsGarbage) {
    EXPECT_FALSE(obs::json_parse("").has_value());
    EXPECT_FALSE(obs::json_parse("{").has_value());
    EXPECT_FALSE(obs::json_parse("{}x").has_value());
    EXPECT_FALSE(obs::json_parse("[1,]").has_value());
    EXPECT_FALSE(obs::json_parse("'single'").has_value());
    EXPECT_FALSE(obs::json_parse("\"raw\ncontrol\"").has_value());
}

// ---- metrics ----------------------------------------------------------------

TEST(ObsMetrics, CountersGaugesAndLabels) {
    obs::MetricsRegistry registry;
    registry.counter("requests_total").inc();
    registry.counter("requests_total").inc(2);
    registry.counter("requests_total", {{"phase", "Bidding"}}).inc(5);
    registry.gauge("temperature").set(21.5);

    EXPECT_EQ(registry.counter("requests_total").value(), 3u);
    EXPECT_EQ(registry.counter("requests_total", {{"phase", "Bidding"}}).value(), 5u);

    const std::string text = registry.prometheus_text();
    EXPECT_NE(text.find("requests_total 3"), std::string::npos);
    EXPECT_NE(text.find("requests_total{phase=\"Bidding\"} 5"), std::string::npos);
    EXPECT_NE(text.find("temperature 21.5"), std::string::npos);
}

TEST(ObsMetrics, HistogramBuckets) {
    obs::MetricsRegistry registry;
    auto& h = registry.histogram("latency", {0.1, 1.0, 10.0});
    h.observe(0.05);
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 55.55);
    const auto cumulative = h.cumulative_counts();
    ASSERT_EQ(cumulative.size(), 4u);  // three bounds + +Inf
    EXPECT_EQ(cumulative[0], 1u);
    EXPECT_EQ(cumulative[1], 2u);
    EXPECT_EQ(cumulative[2], 3u);
    EXPECT_EQ(cumulative[3], 4u);

    const std::string text = registry.prometheus_text();
    EXPECT_NE(text.find("latency_bucket{le=\"+Inf\"} 4"), std::string::npos);
    EXPECT_NE(text.find("latency_count 4"), std::string::npos);

    EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

// Checks one exposition body against the text-format grammar: every line is
// either a `# HELP`/`# TYPE` comment or `name{labels} value` with a valid
// metric name and a parseable number.
void expect_valid_exposition(const std::string& body) {
    std::istringstream in(body);
    std::size_t line_no = 0;
    for (std::string line; std::getline(in, line);) {
        ++line_no;
        SCOPED_TRACE("line " + std::to_string(line_no) + ": " + line);
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0);
            continue;
        }
        // Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
        std::size_t i = 0;
        ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                    line[0] == '_' || line[0] == ':');
        while (i < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[i])) || line[i] == '_' ||
                line[i] == ':')) {
            ++i;
        }
        ASSERT_LT(i, line.size());
        if (line[i] == '{') {
            const std::size_t close = line.find('}', i);
            ASSERT_NE(close, std::string::npos);
            i = close + 1;
        }
        ASSERT_LT(i, line.size());
        ASSERT_EQ(line[i], ' ');
        const std::string value = line.substr(i + 1);
        ASSERT_FALSE(value.empty());
        if (value != "+Inf" && value != "-Inf" && value != "NaN") {
            std::size_t parsed = 0;
            EXPECT_NO_THROW({
                (void)std::stod(value, &parsed);
                EXPECT_EQ(parsed, value.size());
            });
        }
    }
}

// ObsExporterFormat: the text exposition format that prometheus_text()
// exports (the --metrics-out file).
TEST(ObsExporterFormat, BodyConformsToExpositionGrammar) {
    obs::MetricsRegistry registry;
    registry.set_help("requests_total", "Requests observed");
    registry.counter("requests_total").inc(3);
    registry.counter("requests_total", {{"phase", "Bidding"}}).inc(5);
    registry.gauge("temperature").set(21.5);
    auto& h = registry.histogram("latency_seconds", {0.1, 1.0});
    h.observe(0.05);
    h.observe(0.5);
    h.observe(2.0);
    const std::string body = registry.prometheus_text();
    expect_valid_exposition(body);

    // HELP precedes TYPE, TYPE precedes the series.
    const auto help = body.find("# HELP requests_total Requests observed");
    const auto type = body.find("# TYPE requests_total counter");
    const auto series = body.find("requests_total 3");
    ASSERT_NE(help, std::string::npos) << body;
    ASSERT_NE(type, std::string::npos);
    ASSERT_NE(series, std::string::npos);
    EXPECT_LT(help, type);
    EXPECT_LT(type, series);
    EXPECT_NE(body.find("latency_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
}

TEST(ObsExporterFormat, LabelValuesEscapeQuotesAndBackslashes) {
    obs::MetricsRegistry registry;
    registry.counter("weird_total", {{"path", "a\"b\\c\n"}}).inc();
    const std::string body = registry.prometheus_text();
    EXPECT_NE(body.find("weird_total{path=\"a\\\"b\\\\c\\n\"} 1"), std::string::npos)
        << body;
    expect_valid_exposition(body);
}

TEST(ObsMetrics, ExportIsDeterministic) {
    auto fill = [](obs::MetricsRegistry& registry) {
        registry.counter("b_metric", {{"k", "2"}}).inc();
        registry.counter("a_metric").inc(7);
        registry.counter("b_metric", {{"k", "1"}}).inc(3);
        registry.gauge("z_gauge").set(1.25);
    };
    obs::MetricsRegistry first, second;
    fill(first);
    fill(second);
    EXPECT_EQ(first.prometheus_text(), second.prometheus_text());
    EXPECT_EQ(first.json_snapshot(), second.json_snapshot());
    // The snapshot is valid JSON.
    EXPECT_TRUE(obs::json_parse(first.json_snapshot()).has_value());
}

// ---- profiler ---------------------------------------------------------------

TEST(ObsProfiler, DisabledScopesRecordNothing) {
    auto& profiler = obs::Profiler::instance();
    profiler.set_enabled(false);
    profiler.reset();
    { OBS_SCOPE("ghost"); }
    EXPECT_EQ(profiler.total_calls("ghost"), 0u);
}

TEST(ObsProfiler, ScopeRecordsItsCallCount) {
    auto& profiler = obs::Profiler::instance();
    profiler.reset();
    profiler.set_enabled(true);
    {
        OBS_SCOPE("batched", 5);
        OBS_SCOPE("inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(profiler.total_calls("batched"), 5u);
    EXPECT_EQ(profiler.total_calls("inner"), 1u);
    // One duration, not five: the counted scope's time is the inner
    // scope's plus a little bookkeeping, where five would be at least five
    // times the inner scope's.
    const std::uint64_t inner_ns = profiler.total_ns("inner");
    EXPECT_GE(inner_ns, 5'000'000u);
    EXPECT_GE(profiler.total_ns("batched"), inner_ns);
    EXPECT_LT(profiler.total_ns("batched"), 5 * inner_ns);

    profiler.set_enabled(false);
    { OBS_SCOPE("batched", 5); }
    EXPECT_EQ(profiler.total_calls("batched"), 5u);
    profiler.reset();
}

TEST(ObsProfiler, NestedScopesBuildTree) {
    auto& profiler = obs::Profiler::instance();
    profiler.reset();
    profiler.set_enabled(true);
    for (int i = 0; i < 3; ++i) {
        OBS_SCOPE("outer");
        OBS_SCOPE("inner");
    }
    profiler.set_enabled(false);
    EXPECT_EQ(profiler.total_calls("outer"), 3u);
    EXPECT_EQ(profiler.total_calls("inner"), 3u);
    EXPECT_GE(profiler.total_ns("outer"), profiler.total_ns("inner"));
    const std::string report = profiler.report();
    EXPECT_NE(report.find("outer"), std::string::npos);
    EXPECT_NE(report.find("inner"), std::string::npos);
    profiler.reset();
}

// ---- manifest ---------------------------------------------------------------

TEST(ObsManifest, ProducesParsableJsonWithProvenance) {
    obs::RunManifest manifest;
    manifest.set("bench", "unit-test").set_num("z", 0.25).set_uint("seed", 42);
    obs::MetricsRegistry registry;
    registry.counter("runs_total").inc();

    const std::string json = manifest.to_json(&registry);
    const auto doc = obs::json_parse(json);
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->find("v")->number, obs::RunManifest::kSchemaVersion);
    EXPECT_EQ(doc->find("tool")->string, "dlsbl");
    EXPECT_FALSE(doc->find("git")->string.empty());
    EXPECT_EQ(doc->find("bench")->string, "unit-test");
    EXPECT_DOUBLE_EQ(doc->find("seed")->number, 42.0);
    EXPECT_DOUBLE_EQ(doc->find("metrics")->find("runs_total")->number, 1.0);
}

// ---- event log --------------------------------------------------------------

TEST(ObsEvents, JsonlFieldOrderAndEscaping) {
    obs::Event event(util::LogLevel::Info, "test", "demo");
    event.time(1.5)
        .str("who", "P1")
        .num("value", 0.25)
        .uint("count", 7)
        .boolean("ok", true)
        .str("nasty", "a\"b\\c\nd");
    const std::string line = event.to_json();
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value());
    // Schema: v first, then level/component/event/t, then fields in
    // insertion order.
    ASSERT_GE(doc->object.size(), 5u);
    EXPECT_EQ(doc->object[0].first, "v");
    EXPECT_EQ(doc->object[1].first, "level");
    EXPECT_EQ(doc->object[2].first, "component");
    EXPECT_EQ(doc->object[3].first, "event");
    EXPECT_EQ(doc->object[4].first, "t");
    EXPECT_EQ(doc->find("level")->string, "info");
    EXPECT_EQ(doc->find("nasty")->string, "a\"b\\c\nd");
    EXPECT_DOUBLE_EQ(doc->find("t")->number, 1.5);
    EXPECT_TRUE(doc->find("ok")->boolean);
}

TEST(ObsEvents, EventLogLevelGatesSinks) {
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream captured;
    auto sink = std::make_shared<obs::JsonlSink>(captured);
    log.add_sink(sink);
    log.set_level(util::LogLevel::Warn);

    log.emit(obs::Event(util::LogLevel::Debug, "test", "hidden"));
    log.emit(obs::Event(util::LogLevel::Error, "test", "shown"));
    log.flush();

    const std::string text = captured.str();
    EXPECT_EQ(text.find("hidden"), std::string::npos);
    EXPECT_NE(text.find("shown"), std::string::npos);
    log.reset();
}

TEST(ObsEvents, LoggerBridgeRoutesLegacyCalls) {
    obs::install_logger_bridge();
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream captured;
    auto sink = std::make_shared<obs::JsonlSink>(captured);
    log.add_sink(sink);
    obs::set_log_level(util::LogLevel::Debug);

    util::log_debug("legacy", "routed message");
    log.flush();

    const std::string text = captured.str();
    ASSERT_FALSE(text.empty());
    const auto doc = obs::json_parse(text.substr(0, text.find('\n')));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("component")->string, "legacy");
    EXPECT_EQ(doc->find("message")->string, "routed message");
    obs::set_log_level(util::LogLevel::Warn);
    log.reset();
}

TEST(ObsEvents, ParseLogLevel) {
    util::LogLevel level;
    EXPECT_TRUE(obs::parse_log_level("debug", level));
    EXPECT_EQ(level, util::LogLevel::Debug);
    EXPECT_TRUE(obs::parse_log_level("off", level));
    EXPECT_EQ(level, util::LogLevel::Off);
    EXPECT_FALSE(obs::parse_log_level("verbose", level));
}

// ---- trace -> Gantt / catapult ---------------------------------------------

TEST(TraceGantt, ToleratesUnmatchedStartEvents) {
    sim::TraceRecorder trace;
    trace.record(0.0, sim::TraceKind::kLoadTransferStart, "P1", "to=P2");
    trace.record(1.0, sim::TraceKind::kComputeStart, "P2", "");
    trace.record(2.0, sim::TraceKind::kComputeEnd, "P2", "");
    // A terminated run can leave a transfer and a compute open: P1's
    // transfer never ends, P3 starts computing at the horizon and is cut.
    trace.record(2.5, sim::TraceKind::kComputeStart, "P3", "");

    const auto bars = sim::gantt_from_trace(trace);
    ASSERT_EQ(bars.size(), 3u);

    bool bus_seen = false, p2_seen = false, p3_seen = false;
    for (const auto& bar : bars) {
        EXPECT_GE(bar.end, bar.start);
        if (bar.lane == "BUS") {
            bus_seen = true;
            EXPECT_DOUBLE_EQ(bar.start, 0.0);
            EXPECT_DOUBLE_EQ(bar.end, 2.5);  // clipped to the trace horizon
        } else if (bar.lane == "P2") {
            p2_seen = true;
            EXPECT_DOUBLE_EQ(bar.start, 1.0);
            EXPECT_DOUBLE_EQ(bar.end, 2.0);
        } else if (bar.lane == "P3") {
            p3_seen = true;
            EXPECT_DOUBLE_EQ(bar.start, 2.5);
            EXPECT_DOUBLE_EQ(bar.end, 2.5);  // zero-width, never negative
        }
    }
    EXPECT_TRUE(bus_seen);
    EXPECT_TRUE(p2_seen);
    EXPECT_TRUE(p3_seen);
}

TEST(Catapult, HandBuiltTraceExportsValidJson) {
    sim::TraceRecorder trace;
    trace.record(0.0, sim::TraceKind::kPhaseChange, "protocol", "Bidding");
    trace.record(0.0, sim::TraceKind::kMessageSent, "P1", "type=bid");
    trace.record(0.5, sim::TraceKind::kLoadTransferStart, "P1", "to=P2");
    trace.record(1.0, sim::TraceKind::kLoadTransferEnd, "P1", "to=P2");
    trace.record(1.0, sim::TraceKind::kComputeStart, "P2", "");
    trace.record(3.0, sim::TraceKind::kComputeEnd, "P2", "");
    trace.record(3.0, sim::TraceKind::kVerdict, "referee", "detail with \"quotes\"");

    const std::string json = obs::catapult_from_trace(trace);
    const auto doc = obs::json_parse(json);
    ASSERT_TRUE(doc.has_value());
    const auto* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, obs::JsonValue::Kind::kArray);

    std::size_t complete = 0, instants = 0, metadata = 0;
    bool p2_span = false;
    for (const auto& event : events->array) {
        const std::string& ph = event.find("ph")->string;
        if (ph == "X") {
            ++complete;
            // ts/dur are in microseconds (time_scale = 1e6).
            if (event.find("name")->string == "compute") {
                p2_span = true;
                EXPECT_DOUBLE_EQ(event.find("ts")->number, 1e6);
                EXPECT_DOUBLE_EQ(event.find("dur")->number, 2e6);
            }
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 2u);  // one transfer + one compute span
    EXPECT_EQ(instants, 3u);  // phase change + message + verdict
    EXPECT_GE(metadata, 4u);  // process_name + protocol/BUS/P1/P2/referee
    EXPECT_TRUE(p2_span);
}

}  // namespace
}  // namespace dlsbl

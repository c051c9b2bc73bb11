// exec::RunExecutor determinism contract: the same root seed must produce
// byte-identical artifacts — JSONL event logs, metric snapshots, rendered
// result tables — no matter how many workers the batch runs on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "exec/executor.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "protocol/runner.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dlsbl {
namespace {

constexpr std::uint64_t kRootSeed = 0xD15Bull;

// Restores the event log and global metrics to their defaults around each
// batch so every jobs value starts from the same state.
void reset_observability() {
    obs::EventLog::instance().reset();
    obs::MetricsRegistry::global().clear();
}

protocol::ProtocolConfig small_config(std::uint64_t seed, std::size_t index) {
    protocol::ProtocolConfig config;
    config.kind = (index % 2 == 0) ? dlt::NetworkKind::kNcpFE : dlt::NetworkKind::kNcpNFE;
    config.z = 0.15 + 0.05 * static_cast<double>(index % 4);
    config.true_w = {1.0, 2.0 + 0.1 * static_cast<double>(index % 5), 1.5};
    config.block_count = 90;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.seed = seed;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// One full sweep: protocol runs fanned over the pool, events at Debug level
// into an in-memory JSONL sink, and run_protocol's global counters. Returns
// every artifact the byte-identity contract covers.
struct BatchArtifacts {
    std::string jsonl;
    std::string prometheus;
    std::string json_metrics;
    std::string table;
};

BatchArtifacts run_batch(std::size_t jobs, std::size_t count) {
    reset_observability();
    std::ostringstream jsonl_stream;
    auto sink = std::make_shared<obs::JsonlSink>(jsonl_stream);
    auto& log = obs::EventLog::instance();
    log.add_sink(sink);
    log.set_level(util::LogLevel::Debug);

    exec::RunExecutor pool({.jobs = jobs, .root_seed = kRootSeed});
    const auto outcomes = pool.map(count, [&](exec::RunSlot& slot) {
        // A run_summary event and global counters from the protocol.
        return protocol::run_protocol(small_config(slot.seed(), slot.index()));
    });
    log.flush();

    BatchArtifacts artifacts;
    artifacts.jsonl = jsonl_stream.str();
    artifacts.prometheus = obs::MetricsRegistry::global().prometheus_text();
    artifacts.json_metrics = obs::MetricsRegistry::global().json_snapshot();
    util::Table table({"run", "makespan", "user paid"});
    table.set_precision(9);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        table.add_numeric_row({static_cast<double>(i), outcomes[i].makespan,
                               outcomes[i].user_paid});
    }
    artifacts.table = table.render();

    log.remove_sink(sink);
    reset_observability();
    return artifacts;
}

TEST(ExecDeterminism, SeedDerivationIsPureAndDecorrelated) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t stream = 0; stream < 512; ++stream) {
        const std::uint64_t seed = util::derive_seed(kRootSeed, stream);
        EXPECT_EQ(seed, util::derive_seed(kRootSeed, stream));
        seen.insert(seed);
    }
    EXPECT_EQ(seen.size(), 512u) << "derived seeds collide across streams";
    EXPECT_NE(util::derive_seed(1, 0), util::derive_seed(2, 0));
}

TEST(ExecDeterminism, ArtifactsByteIdenticalAcrossJobCounts) {
    const std::size_t count = 24;
    const auto serial = run_batch(1, count);
    ASSERT_FALSE(serial.jsonl.empty()) << "batch produced no events";
    EXPECT_NE(serial.jsonl.find("run_summary"), std::string::npos);
    EXPECT_NE(serial.json_metrics.find("\"dlsbl_runs_total\":24"), std::string::npos)
        << serial.json_metrics;

    for (std::size_t jobs : {2u, 8u}) {
        const auto parallel = run_batch(jobs, count);
        EXPECT_EQ(serial.jsonl, parallel.jsonl) << "JSONL differs at jobs=" << jobs;
        EXPECT_EQ(serial.prometheus, parallel.prometheus)
            << "prometheus snapshot differs at jobs=" << jobs;
        EXPECT_EQ(serial.json_metrics, parallel.json_metrics)
            << "json snapshot differs at jobs=" << jobs;
        EXPECT_EQ(serial.table, parallel.table) << "table differs at jobs=" << jobs;
    }
}

TEST(ExecDeterminism, MapReturnsSubmissionOrder) {
    exec::RunExecutor pool({.jobs = 8, .root_seed = 7});
    const auto values = pool.map(200, [](exec::RunSlot& slot) {
        return std::make_pair(slot.index(), slot.seed());
    });
    ASSERT_EQ(values.size(), 200u);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i].first, i);
        EXPECT_EQ(values[i].second, util::derive_seed(7, i));
    }
}

TEST(ExecDeterminism, RunRngIndependentOfNeighbours) {
    // A run's random draws depend only on (root, index): dropping every
    // other run must not change the survivors' streams.
    exec::RunExecutor pool({.jobs = 4, .root_seed = 99});
    const auto full = pool.map(16, [](exec::RunSlot& slot) {
        auto rng = slot.rng();
        return rng.uniform();
    });
    for (std::size_t i = 0; i < 16; ++i) {
        auto rng = util::Xoshiro256{util::derive_seed(99, i)};
        EXPECT_EQ(full[i], rng.uniform());
    }
}

TEST(ExecDeterminism, NestedExecutorStaysDeterministic) {
    auto nested_batch = [&](std::size_t outer_jobs) {
        reset_observability();
        std::ostringstream stream;
        auto sink = std::make_shared<obs::JsonlSink>(stream);
        auto& log = obs::EventLog::instance();
        log.add_sink(sink);
        log.set_level(util::LogLevel::Info);
        exec::RunExecutor outer({.jobs = outer_jobs, .root_seed = 5});
        outer.for_each(4, [&](exec::RunSlot& slot) {
            exec::RunExecutor inner({.jobs = 2, .root_seed = slot.seed()});
            inner.for_each(3, [&](exec::RunSlot& inner_slot) {
                obs::Event event(util::LogLevel::Info, "test", "nested");
                event.uint("outer", slot.index()).uint("inner", inner_slot.index());
                log.emit(event);
            });
        });
        log.flush();
        log.remove_sink(sink);
        reset_observability();
        return stream.str();
    };
    const auto serial = nested_batch(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, nested_batch(4));
}

TEST(ExecDeterminism, FirstExceptionPropagates) {
    exec::RunExecutor pool({.jobs = 4, .root_seed = 3});
    EXPECT_THROW(pool.for_each(32,
                               [](exec::RunSlot& slot) {
                                   if (slot.index() == 17) {
                                       throw std::runtime_error("boom");
                                   }
                               }),
                 std::runtime_error);
    // The pool is reusable after a failed batch.
    const auto ok = pool.map(4, [](exec::RunSlot& slot) { return slot.index(); });
    EXPECT_EQ(ok.size(), 4u);
}

TEST(ExecDeterminism, JobsFromArgsParsesFlagAndFallback) {
    ::unsetenv("DLSBL_JOBS");
    const char* argv_jobs[] = {"prog", "--jobs", "6"};
    EXPECT_EQ(exec::RunExecutor::jobs_from_args(3, const_cast<char**>(argv_jobs)), 6u);
    const char* argv_short[] = {"prog", "-j", "2"};
    EXPECT_EQ(exec::RunExecutor::jobs_from_args(3, const_cast<char**>(argv_short)), 2u);
    const char* argv_none[] = {"prog"};
    EXPECT_EQ(exec::RunExecutor::jobs_from_args(1, const_cast<char**>(argv_none), 4), 4u);
}

}  // namespace
}  // namespace dlsbl

// Pins every export rendered from a run's trace, byte for byte.
//
// Three fixed-seed kFast runs between them record every trace kind: an
// honest NCP-FE run, an NCP-NFE run whose load origin corrupts its blocks
// (verdicts, dispute spans) and a churn run with a crash, a loss window and
// a delay window (churn drop and delay notes, a redelivery). No protocol
// path records TraceKind::kNote, so the observer appends one note after each
// run. For each run the test digests (FNV-1a) render(), the catapult JSON,
// the Gantt bars rebuilt from the trace and the per-actor record counts.
// The expected digests are those of the trace that stored each record's
// text, before records became fixed-size; a change in how a record is
// stored or rendered moves one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "agents/zoo.hpp"
#include "obs/catapult.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "sim/trace.hpp"

namespace dlsbl {
namespace {

std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

struct ExportDigests {
    std::uint64_t render = 0;
    std::uint64_t catapult = 0;
    std::uint64_t gantt = 0;
    std::uint64_t actors = 0;
    std::size_t records = 0;
    std::vector<std::size_t> per_kind;
};

constexpr sim::TraceKind kAllKinds[] = {
    sim::TraceKind::kMessageSent,    sim::TraceKind::kMessageDelivered,
    sim::TraceKind::kLoadTransferStart, sim::TraceKind::kLoadTransferEnd,
    sim::TraceKind::kComputeStart,   sim::TraceKind::kComputeEnd,
    sim::TraceKind::kPhaseChange,    sim::TraceKind::kVerdict,
    sim::TraceKind::kNote,           sim::TraceKind::kSpanBegin,
    sim::TraceKind::kSpanEnd,        sim::TraceKind::kChurn,
};

ExportDigests digest_run(const protocol::ProtocolConfig& config) {
    ExportDigests out;
    protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
        sim::TraceRecorder& trace = internals.trace();
        trace.record(1e3, sim::TraceKind::kNote, "P2", "pinned note \"quoted\"", 7, 3);
        out.render = fnv1a(trace.render());
        out.catapult = fnv1a(obs::catapult_from_trace(trace));
        std::string bars;
        char line[160];
        for (const auto& bar : sim::gantt_from_trace(trace)) {
            std::snprintf(line, sizeof(line), "%s %.17g %.17g %c\n", bar.lane.c_str(),
                          bar.start, bar.end, bar.glyph);
            bars += line;
        }
        out.gantt = fnv1a(bars);
        std::string actors;
        for (const char* actor :
             {"", "protocol", "referee", "user", "P1", "P2", "P3", "P4", "P5", "BUS"}) {
            actors += std::string(actor) + '=' +
                      std::to_string(trace.filter_actor(actor).size()) + '\n';
        }
        out.actors = fnv1a(actors);
        out.records = trace.events().size();
        for (const auto kind : kAllKinds) out.per_kind.push_back(trace.filter(kind).size());
    });
    return out;
}

protocol::ProtocolConfig base_config(dlt::NetworkKind kind) {
    protocol::ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 240;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

void expect_digests(const ExportDigests& got, std::uint64_t render,
                    std::uint64_t catapult, std::uint64_t gantt, std::uint64_t actors,
                    std::size_t records) {
    EXPECT_EQ(got.render, render) << std::hex << "render 0x" << got.render;
    EXPECT_EQ(got.catapult, catapult) << std::hex << "catapult 0x" << got.catapult;
    EXPECT_EQ(got.gantt, gantt) << std::hex << "gantt 0x" << got.gantt;
    EXPECT_EQ(got.actors, actors) << std::hex << "actors 0x" << got.actors;
    EXPECT_EQ(got.records, records);
}

TEST(TraceExportsPinned, HonestNcpFe) {
    const auto got = digest_run(base_config(dlt::NetworkKind::kNcpFE));
    expect_digests(got, 0x8799839a950369d4ULL, 0x97a4792ecca1c50fULL, 0x566ab7f3581102d2ULL,
                   0xee67baf207222c57ULL, 113);
}

TEST(TraceExportsPinned, CorruptingLoadOriginNcpNfe) {
    auto config = base_config(dlt::NetworkKind::kNcpNFE);
    config.strategies[3] = agents::corrupting_lo();
    const auto got = digest_run(config);
    EXPECT_GT(got.per_kind[7], 0u) << "no verdict recorded";
    expect_digests(got, 0xca731d5cda9dd737ULL, 0x48336c72c85d4566ULL, 0x23bcd62ef00edd94ULL,
                   0xf3b5669b9fb1d1edULL, 76);
}

TEST(TraceExportsPinned, CrashLossAndDelayChurn) {
    auto config = base_config(dlt::NetworkKind::kNcpFE);
    const auto plan =
        protocol::ChurnPlan::parse("crash:P3@0.3;loss:P2@0.37-0.38;delay:P4@0-0.1+0.03");
    ASSERT_TRUE(plan.has_value());
    config.churn_plan = *plan;
    const auto got = digest_run(config);
    EXPECT_GT(got.per_kind[11], 0u) << "no churn record";
    expect_digests(got, 0xcaa2045c6c1d9964ULL, 0x8a8ea4b0bea7eea2ULL, 0x9cdfd5c6c296075bULL,
                   0x10572b3ba9192e36ULL, 154);
}

// Between them the three runs record every kind.
TEST(TraceExportsPinned, RunsCoverEveryKind) {
    auto nfe = base_config(dlt::NetworkKind::kNcpNFE);
    nfe.strategies[3] = agents::corrupting_lo();
    auto churn = base_config(dlt::NetworkKind::kNcpFE);
    churn.churn_plan =
        *protocol::ChurnPlan::parse("crash:P3@0.3;loss:P2@0.37-0.38;delay:P4@0-0.1+0.03");
    std::vector<std::size_t> total(std::size(kAllKinds), 0);
    for (const auto& config : {base_config(dlt::NetworkKind::kNcpFE), nfe, churn}) {
        const auto got = digest_run(config);
        for (std::size_t k = 0; k < total.size(); ++k) total[k] += got.per_kind[k];
    }
    for (std::size_t k = 0; k < total.size(); ++k) {
        EXPECT_GT(total[k], 0u) << sim::to_string(kAllKinds[k]);
    }
}

}  // namespace
}  // namespace dlsbl

// dlsbl_analyze test suite.
//
// Four layers, mirroring the tool's structure:
//   1. subset-parser unit tests on deliberately tricky C++ (nested
//      namespaces, out-of-line methods, ctor init lists, templates,
//      lambdas, operators, macros) — the parser's documented blind spots
//      are pinned here too;
//   2. per-pass tests against the good/bad fixture pairs in
//      tests/analyze_fixtures/ — every bad fixture must fail its pass,
//      every good twin must pass;
//   3. facts-file mechanics and artifact round-trips (JSON and SARIF both
//      re-parse through obs::json_parse);
//   4. repository meta-tests: the real src/ tree builds a program with no
//      errors and analyzes clean under the checked-in facts file — with
//      the determinism-taint pass specifically reporting zero unsuppressed
//      flows in src/protocol/.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/parser.hpp"
#include "analyze/passes.hpp"
#include "analyze/program.hpp"
#include "analyze/report.hpp"
#include "obs/json.hpp"

namespace {

using dlsbl::analyze::AnalyzeConfig;
using dlsbl::analyze::Facts;
using dlsbl::analyze::FileModel;
using dlsbl::analyze::Finding;
using dlsbl::analyze::Program;
using dlsbl::analyze::build_program_from_sources;
using dlsbl::analyze::build_program_tree;
using dlsbl::analyze::default_config;
using dlsbl::analyze::parse_facts;
using dlsbl::analyze::parse_file;

std::string read_fixture(const std::string& name) {
    const std::filesystem::path path =
        std::filesystem::path(DLSBL_SOURCE_DIR) / "tests" / "analyze_fixtures" /
        name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// Injects fixtures into the program under virtual repo paths, so fixture
// files on disk can play protocol/util/obs roles.
Program fixture_program(
    const std::vector<std::pair<std::string, std::string>>& path_to_fixture) {
    std::vector<std::pair<std::string, std::string>> sources;
    for (const auto& [virtual_path, fixture] : path_to_fixture) {
        sources.emplace_back(virtual_path, read_fixture(fixture));
    }
    return build_program_from_sources(sources);
}

std::string dump(const std::vector<Finding>& findings) {
    std::string out;
    for (const Finding& f : findings) {
        out += "  " + f.pass + " " + f.file + ":" + std::to_string(f.line) +
               " " + f.symbol + ": " + f.message + "\n";
    }
    return out;
}

const dlsbl::analyze::FunctionDef* find_fn(const FileModel& model,
                                           const std::string& name) {
    for (const auto& fn : model.functions) {
        if (fn.name == name) return &fn;
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// 1. Subset parser
// ---------------------------------------------------------------------------

TEST(AnalyzeParser, NestedNamespacesAndMethods) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
namespace outer::inner {
struct Widget {
    int size() const { return 1; }
};
}  // namespace outer::inner
namespace outer {
int helper() { return 2; }
}
int freestanding() { return 3; }
)cpp");
    ASSERT_EQ(m.functions.size(), 3u);
    EXPECT_EQ(m.functions[0].qualified, "outer::inner::Widget::size");
    EXPECT_EQ(m.functions[0].class_name, "Widget");
    EXPECT_EQ(m.functions[0].ns, "outer::inner");
    EXPECT_EQ(m.functions[1].qualified, "outer::helper");
    EXPECT_EQ(m.functions[2].qualified, "freestanding");
}

TEST(AnalyzeParser, OutOfLineCtorWithInitListAttributesCallsToBody) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
namespace app {
struct Meter {
    explicit Meter(int v);
    void reset(int v);
    int v_;
};
Meter::Meter(int v) : v_(v) { reset(v); }
}  // namespace app
)cpp");
    const auto* ctor = find_fn(m, "Meter");
    ASSERT_NE(ctor, nullptr);
    EXPECT_EQ(ctor->qualified, "app::Meter::Meter");
    // v_(v) in the init list is not a call; reset(v) in the body is.
    ASSERT_EQ(ctor->calls.size(), 1u);
    EXPECT_EQ(ctor->calls[0].name, "reset");
}

TEST(AnalyzeParser, TemplatesAndLambdasFoldIntoEnclosingFunction) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
template <typename T>
T twice(T v) {
    auto dbl = [](T x) { return x + x; };
    return dbl(v);
}
)cpp");
    ASSERT_EQ(m.functions.size(), 1u);
    EXPECT_EQ(m.functions[0].name, "twice");
    ASSERT_EQ(m.functions[0].calls.size(), 1u);
    EXPECT_EQ(m.functions[0].calls[0].name, "dbl");
}

TEST(AnalyzeParser, PreprocessorLinesAreInvisible) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
#define LOG_CALL(x) log_sink(x)
#include "util/strings.hpp"
#include <vector>
int plain() { return 0; }
)cpp");
    ASSERT_EQ(m.functions.size(), 1u);
    EXPECT_EQ(m.functions[0].name, "plain");
    EXPECT_TRUE(m.functions[0].calls.empty());
    // Quoted include recorded; the macro body and <vector> are not.
    ASSERT_EQ(m.includes.size(), 1u);
    EXPECT_EQ(m.includes[0].path, "util/strings.hpp");
}

TEST(AnalyzeParser, EnumExtraction) {
    const FileModel m = parse_file("src/x.hpp", R"cpp(
namespace n {
enum class Kind : unsigned char { kA = 1, kB = 2, kC = 3 };
enum Legacy { kOld, kNew };
}  // namespace n
)cpp");
    ASSERT_EQ(m.enums.size(), 2u);
    EXPECT_EQ(m.enums[0].qualified, "n::Kind");
    EXPECT_EQ(m.enums[0].enumerators,
              (std::vector<std::string>{"kA", "kB", "kC"}));
    EXPECT_EQ(m.enums[1].enumerators,
              (std::vector<std::string>{"kOld", "kNew"}));
}

TEST(AnalyzeParser, LockSitesTrackHeldStackAndScopedGroups) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
#include <mutex>
struct S {
    std::mutex mu_;
    std::mutex aux_;
    void f(S& other) {
        std::lock_guard<std::mutex> a(mu_);
        {
            std::lock_guard<std::mutex> b(other.aux_);
        }
        std::lock_guard<std::mutex> c(aux_);
    }
    void g() { std::scoped_lock both(mu_, aux_); }
};
)cpp");
    ASSERT_EQ(m.mutexes.size(), 2u);
    EXPECT_EQ(m.mutexes[0].class_name, "S");
    const auto* f = find_fn(m, "f");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(f->locks.size(), 3u);
    EXPECT_TRUE(f->locks[0].held_before.empty());
    EXPECT_EQ(f->locks[1].object, "other");
    EXPECT_EQ(f->locks[1].held_before, (std::vector<std::size_t>{0}));
    // The inner block released lock b before c was acquired.
    EXPECT_EQ(f->locks[2].held_before, (std::vector<std::size_t>{0}));
    const auto* g = find_fn(m, "g");
    ASSERT_NE(g, nullptr);
    ASSERT_EQ(g->locks.size(), 2u);
    EXPECT_EQ(g->locks[0].group, g->locks[1].group);
    EXPECT_NE(g->locks[0].group, dlsbl::analyze::LockSite::kNoGroup);
}

TEST(AnalyzeParser, IterationSitesAndContainerTable) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
#include <unordered_map>
#include <vector>
struct M {
    std::unordered_map<int, int> cache_;
    std::vector<int> order_;
    int walk() {
        int s = 0;
        for (auto& kv : cache_) s += kv.second;
        auto it = order_.begin();
        return s;
    }
};
)cpp");
    ASSERT_EQ(m.containers.size(), 1u);
    EXPECT_EQ(m.containers[0].name, "cache_");
    EXPECT_TRUE(m.containers[0].unordered);
    const auto* walk = find_fn(m, "walk");
    ASSERT_NE(walk, nullptr);
    ASSERT_EQ(walk->iterations.size(), 2u);
    EXPECT_EQ(walk->iterations[0].receiver, "cache_");
    EXPECT_EQ(walk->iterations[1].receiver, "order_");
}

TEST(AnalyzeParser, NondeterminismSources) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
#include <chrono>
#include <cstdlib>
long stamp() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
int knob() { return std::getenv("X") != nullptr ? 1 : 0; }
struct H {
    std::size_t hash_ptr(const void* p) const {
        return std::hash<const void*>{}(p);
    }
};
)cpp");
    const auto* stamp = find_fn(m, "stamp");
    ASSERT_NE(stamp, nullptr);
    ASSERT_EQ(stamp->sources.size(), 1u);
    EXPECT_EQ(stamp->sources[0].what, "::now");
    const auto* knob = find_fn(m, "knob");
    ASSERT_NE(knob, nullptr);
    ASSERT_EQ(knob->sources.size(), 1u);
    EXPECT_EQ(knob->sources[0].what, "getenv");
    const auto* hash_ptr = find_fn(m, "hash_ptr");
    ASSERT_NE(hash_ptr, nullptr);
    ASSERT_EQ(hash_ptr->sources.size(), 1u);
    EXPECT_EQ(hash_ptr->sources[0].what, "pointer-hash");
}

TEST(AnalyzeParser, QualifiedRefsIncludeSuffixes) {
    const FileModel m = parse_file("src/x.cpp", R"cpp(
int f() { return static_cast<int>(proto::MsgType::kBid); }
)cpp");
    EXPECT_EQ(m.qualified_refs.count("proto::MsgType::kBid"), 1u);
    EXPECT_EQ(m.qualified_refs.count("MsgType::kBid"), 1u);
}

// ---------------------------------------------------------------------------
// 2. Passes vs fixture pairs
// ---------------------------------------------------------------------------

TEST(AnalyzeTaint, BadFixtureLeaksThroughTwoHops) {
    const Program p =
        fixture_program({{"src/protocol/fake_pricing.cpp", "bad_taint.cpp"}});
    const AnalyzeConfig config = default_config();
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_taint(p, config.taint);
    // All three functions on the chain live in protected code.
    ASSERT_EQ(findings.size(), 3u) << dump(findings);
    EXPECT_EQ(findings[0].symbol, "dlsbl::protocol::read_tuning_knob");
    // Sorted by line: seed (11), intermediate (16), sink (19).
    const Finding& sink = findings[2];
    EXPECT_EQ(sink.symbol, "dlsbl::protocol::quote_payment");
    EXPECT_NE(sink.message.find("getenv"), std::string::npos);
    ASSERT_EQ(sink.notes.size(), 1u);
    EXPECT_NE(sink.notes[0].find("quote_payment"), std::string::npos);
    EXPECT_NE(sink.notes[0].find("scaled_rate"), std::string::npos);
    EXPECT_NE(sink.notes[0].find("read_tuning_knob"), std::string::npos);
}

TEST(AnalyzeTaint, GoodFixtureIsCleanUnderSanitizeFact) {
    const Program p =
        fixture_program({{"src/protocol/fake_pricing.cpp", "good_taint.cpp"}});
    AnalyzeConfig config = default_config();
    const Facts facts = parse_facts(
        "sanitize dlsbl::protocol::read_thread_knob thread knobs change "
        "speed, never bytes\n");
    ASSERT_TRUE(facts.errors.empty());
    config.taint.sanitized = facts.sanitize_globs();
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_taint(p, config.taint);
    EXPECT_TRUE(findings.empty()) << dump(findings);
    // Without the fact the same program is dirty — the fact is load-bearing.
    config.taint.sanitized.clear();
    EXPECT_FALSE(dlsbl::analyze::pass_taint(p, config.taint).empty());
}

TEST(AnalyzeLockOrder, BadFixtureHasCycleAndDoubleAcquisition) {
    const Program p =
        fixture_program({{"src/exec/fake_locks.cpp", "bad_lockorder.cpp"}});
    const std::vector<Finding> findings = dlsbl::analyze::pass_lock_order(p);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    bool saw_cycle = false;
    bool saw_double = false;
    for (const Finding& f : findings) {
        if (f.message.find("lock-order cycle") != std::string::npos) {
            saw_cycle = true;
            EXPECT_NE(f.message.find("mu_"), std::string::npos);
        }
        if (f.message.find("second acquisition") != std::string::npos) {
            saw_double = true;
            EXPECT_EQ(f.symbol, "Ledger::table_mu_");
        }
    }
    EXPECT_TRUE(saw_cycle) << dump(findings);
    EXPECT_TRUE(saw_double) << dump(findings);
}

TEST(AnalyzeLockOrder, GoodFixtureIsClean) {
    const Program p =
        fixture_program({{"src/exec/fake_locks.cpp", "good_lockorder.cpp"}});
    const std::vector<Finding> findings = dlsbl::analyze::pass_lock_order(p);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(AnalyzeLockOrder, HeldLocksCrossCallBoundaries) {
    // f holds A::mu_ while calling g, which takes B::mu_; h takes B::mu_
    // then A::mu_ directly. The cycle only exists via the derived edge.
    const Program p = build_program_from_sources({{"src/x.cpp", R"cpp(
#include <mutex>
struct A { std::mutex a_mu_; };
struct B { std::mutex b_mu_; };
void g(B& b) { std::lock_guard<std::mutex> l(b.b_mu_); }
void f(A& a, B& b) {
    std::lock_guard<std::mutex> l(a.a_mu_);
    g(b);
}
void h(A& a, B& b) {
    std::lock_guard<std::mutex> l(b.b_mu_);
    std::lock_guard<std::mutex> m(a.a_mu_);
}
)cpp"}});
    const std::vector<Finding> findings = dlsbl::analyze::pass_lock_order(p);
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
    EXPECT_NE(findings[0].notes.at(0).find("f -> g"), std::string::npos);
}

TEST(AnalyzeDispatch, BadFixtureMissesOneEnumerator) {
    const Program p =
        fixture_program({{"src/protocol/fake_site.cpp", "bad_dispatch.cpp"}});
    dlsbl::analyze::DispatchCheck check;
    check.enum_name = "FakeMsg";
    check.enum_file = "src/protocol/fake_site.cpp";
    check.sites = {{"fake", "src/protocol/fake_site.cpp"}};
    check.registration_calls = {"on", "ignore"};
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_dispatch(p, {check});
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_EQ(findings[0].symbol, "FakeMsg::kQuit");
}

TEST(AnalyzeDispatch, GoodFixtureRegistersEverything) {
    const Program p =
        fixture_program({{"src/protocol/fake_site.cpp", "good_dispatch.cpp"}});
    dlsbl::analyze::DispatchCheck check;
    check.enum_name = "FakeMsg";
    check.enum_file = "src/protocol/fake_site.cpp";
    check.sites = {{"fake", "src/protocol/fake_site.cpp"}};
    check.registration_calls = {"on", "ignore"};
    EXPECT_TRUE(dlsbl::analyze::pass_dispatch(p, {check}).empty());
}

TEST(AnalyzeDispatch, MentionModeFlagsUnreferencedEnumerator) {
    const Program p = build_program_from_sources(
        {{"src/protocol/kinds.hpp",
          "enum class EvKind { kUp = 1, kDown = 2, kStale = 3 };\n"},
         {"src/protocol/ruling.cpp",
          "int rule(int k) {\n"
          "    if (k == static_cast<int>(EvKind::kUp)) return 1;\n"
          "    if (k == static_cast<int>(EvKind::kDown)) return 2;\n"
          "    return 0;\n"
          "}\n"}});
    dlsbl::analyze::DispatchCheck check;
    check.enum_name = "EvKind";
    check.enum_file = "src/protocol/kinds.hpp";
    check.mention_files = {"src/protocol/ruling.cpp"};
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_dispatch(p, {check});
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_EQ(findings[0].symbol, "EvKind::kStale");
}

TEST(AnalyzeLayering, BadFixtureViolatesDagAndCycles) {
    const Program p = fixture_program(
        {{"src/util/wallclock.cpp", "bad_layering.cpp"},
         {"src/protocol/fake_wire.hpp", "fake_wire.hpp"},
         {"src/obs/fake_ring_a.hpp", "fake_ring_a.hpp"},
         {"src/obs/fake_ring_b.hpp", "fake_ring_b.hpp"}});
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_layering(p, default_config().layering);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    EXPECT_EQ(findings[0].pass, dlsbl::analyze::kPassIncludeCycle);
    EXPECT_NE(findings[0].message.find("fake_ring_a.hpp"), std::string::npos);
    EXPECT_EQ(findings[1].pass, dlsbl::analyze::kPassLayering);
    EXPECT_EQ(findings[1].symbol, "util -> protocol");
}

TEST(AnalyzeLayering, GoodFixtureSelfIncludeIsAllowed) {
    const Program p =
        fixture_program({{"src/protocol/uses_wire.cpp", "good_layering.cpp"},
                         {"src/protocol/fake_wire.hpp", "fake_wire.hpp"}});
    EXPECT_TRUE(
        dlsbl::analyze::pass_layering(p, default_config().layering).empty());
}

TEST(AnalyzeLayering, DriversExceptionReachesSimButUtilMayNot) {
    const Program p = build_program_from_sources(
        {{"src/sim/kernel_fake.hpp", "inline int k() { return 0; }\n"},
         {"src/protocol/drivers/fake_driver.cpp",
          "#include \"sim/kernel_fake.hpp\"\nint d() { return k(); }\n"},
         {"src/protocol/core_fake.cpp",
          "#include \"sim/kernel_fake.hpp\"\nint c() { return k(); }\n"}});
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_layering(p, default_config().layering);
    // Only the non-drivers protocol file may not touch sim.
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_EQ(findings[0].file, "src/protocol/core_fake.cpp");
    EXPECT_EQ(findings[0].symbol, "protocol -> sim");
}

// ---------------------------------------------------------------------------
// 3. Facts mechanics and artifact round-trips
// ---------------------------------------------------------------------------

TEST(AnalyzeFacts, ParseAcceptsKnownKindsAndRejectsTheRest) {
    const Facts ok = parse_facts(
        "# comment\n"
        "\n"
        "sanitize dlsbl::util::* seeded streams\n"
        "lock-order src/exec/* justified by pool teardown order\n");
    EXPECT_TRUE(ok.errors.empty());
    ASSERT_EQ(ok.entries.size(), 2u);
    EXPECT_EQ(ok.entries[0].kind, "sanitize");
    EXPECT_EQ(ok.entries[1].justification, "justified by pool teardown order");

    EXPECT_EQ(parse_facts("frobnicate src/* because\n").errors.size(), 1u);
    EXPECT_EQ(parse_facts("sanitize\n").errors.size(), 1u);
    EXPECT_EQ(parse_facts("lock-order src/exec/*\n").errors.size(), 1u);
}

TEST(AnalyzeFacts, SuppressionMatchesFileOrSymbolAndCountsHits) {
    const Facts facts = parse_facts(
        "lock-order src/exec/pool.cpp shutdown path holds both by design\n"
        "taint-determinism *::jitter_ns seeded jitter\n");
    ASSERT_TRUE(facts.errors.empty());
    Finding by_file;
    by_file.pass = "lock-order";
    by_file.file = "src/exec/pool.cpp";
    Finding by_symbol;
    by_symbol.pass = "taint-determinism";
    by_symbol.file = "src/sim/kernel.cpp";
    by_symbol.symbol = "dlsbl::sim::jitter_ns";
    Finding unrelated;
    unrelated.pass = "lock-order";
    unrelated.file = "src/obs/metrics.cpp";

    const dlsbl::analyze::Filtered filtered = dlsbl::analyze::apply_facts(
        facts, {by_file, by_symbol, unrelated});
    EXPECT_EQ(filtered.suppressed, 2u);
    ASSERT_EQ(filtered.kept.size(), 1u);
    EXPECT_EQ(filtered.kept[0].file, "src/obs/metrics.cpp");
    EXPECT_EQ(facts.entries[0].hits, 1u);
    EXPECT_EQ(facts.entries[1].hits, 1u);
}

TEST(AnalyzeReport, JsonArtifactRoundTrips) {
    Finding f;
    f.pass = dlsbl::analyze::kPassTaint;
    f.file = "src/protocol/node.cpp";
    f.line = 42;
    f.symbol = "dlsbl::protocol::quote";
    f.message = "nondeterminism reaches protocol code";
    f.notes = {"call chain: a b"};
    const std::string doc = dlsbl::analyze::report_json({f}, 3, 120);
    const auto parsed = dlsbl::obs::json_parse(doc);
    ASSERT_TRUE(parsed.has_value());
    const auto* manifest = parsed->find("manifest");
    ASSERT_NE(manifest, nullptr);
    const auto* generator = manifest->find("generator");
    ASSERT_NE(generator, nullptr);
    EXPECT_EQ(generator->string, "dlsbl_analyze");
    const auto* findings = parsed->find("findings");
    ASSERT_NE(findings, nullptr);
    ASSERT_EQ(findings->array.size(), 1u);
    EXPECT_EQ(findings->array[0].find("pass")->string,
              dlsbl::analyze::kPassTaint);
    EXPECT_EQ(findings->array[0].find("line")->number, 42.0);
    const auto* summary = parsed->find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("suppressed")->number, 3.0);
    EXPECT_EQ(summary->find("files")->number, 120.0);
}

TEST(AnalyzeReport, SarifRoundTripsWithRulesAndLocations) {
    Finding located;
    located.pass = dlsbl::analyze::kPassLockOrder;
    located.file = "src/obs/metrics.cpp";
    located.line = 96;
    located.message = "second acquisition";
    Finding program_level;
    program_level.pass = dlsbl::analyze::kPassDispatch;
    program_level.message = "site missing";
    const std::string doc =
        dlsbl::analyze::report_sarif({located, program_level});
    const auto parsed = dlsbl::obs::json_parse(doc);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("version")->string, "2.1.0");
    const auto* runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    const auto& run = runs->array[0];
    const auto* driver = run.find("tool")->find("driver");
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->find("name")->string, "dlsbl_analyze");
    // One SARIF rule per pass id.
    EXPECT_EQ(driver->find("rules")->array.size(),
              dlsbl::analyze::all_pass_ids().size());
    const auto* results = run.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->array.size(), 2u);
    const auto& first = results->array[0];
    EXPECT_EQ(first.find("ruleId")->string, dlsbl::analyze::kPassLockOrder);
    const auto* locations = first.find("locations");
    ASSERT_NE(locations, nullptr);
    EXPECT_EQ(locations->array[0]
                  .find("physicalLocation")
                  ->find("artifactLocation")
                  ->find("uri")
                  ->string,
              "src/obs/metrics.cpp");
    EXPECT_EQ(locations->array[0]
                  .find("physicalLocation")
                  ->find("region")
                  ->find("startLine")
                  ->number,
              96.0);
    // Program-level findings carry no location.
    EXPECT_EQ(results->array[1].find("locations"), nullptr);
}

TEST(AnalyzeProgram, CompileDbFiltersToRootsAndNormalizes) {
    const std::filesystem::path db_path =
        std::filesystem::path(::testing::TempDir()) / "dlsbl_compile_db.json";
    {
        std::ofstream out(db_path, std::ios::binary);
        out << "[{\"directory\":" << dlsbl::obs::json_escape(DLSBL_SOURCE_DIR)
            << ",\"command\":\"c++ -c src/obs/json.cpp\","
            << "\"file\":\"src/obs/json.cpp\"},"
            << "{\"directory\":\"/usr\",\"command\":\"c++ -c x.cpp\","
            << "\"file\":\"/usr/x.cpp\"}]";
    }
    std::vector<std::string> files;
    std::string error;
    ASSERT_TRUE(dlsbl::analyze::compile_db_files(
        DLSBL_SOURCE_DIR, db_path.string(), {"src"}, &files, &error))
        << error;
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0], "src/obs/json.cpp");

    // A db that is not a JSON array is a configuration error.
    const std::filesystem::path bad_path =
        std::filesystem::path(::testing::TempDir()) / "dlsbl_bad_db.json";
    {
        std::ofstream out(bad_path, std::ios::binary);
        out << "{\"not\":\"an array\"}";
    }
    files.clear();
    EXPECT_FALSE(dlsbl::analyze::compile_db_files(
        DLSBL_SOURCE_DIR, bad_path.string(), {"src"}, &files, &error));
}

TEST(AnalyzeProgram, TreeBuildClosesOverQuotedIncludes) {
    std::vector<dlsbl::analyze::BuildError> errors;
    const Program p = build_program_tree(
        DLSBL_SOURCE_DIR, {"src/protocol/churn.cpp"}, &errors);
    EXPECT_TRUE(errors.empty());
    // The TU itself plus its quoted-include closure.
    EXPECT_EQ(p.files.count("src/protocol/churn.cpp"), 1u);
    EXPECT_EQ(p.files.count("src/protocol/churn.hpp"), 1u);
}

// ---------------------------------------------------------------------------
// 4. Repository meta-tests
// ---------------------------------------------------------------------------

Facts repo_facts() {
    std::ifstream in(std::filesystem::path(DLSBL_SOURCE_DIR) / "tools" /
                         "analyze" / "dlsbl_analyze.facts",
                     std::ios::binary);
    EXPECT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_facts(buffer.str());
}

TEST(AnalyzeRepository, TreeAnalyzesCleanUnderCheckedInFacts) {
    std::vector<dlsbl::analyze::BuildError> errors;
    const Program p = build_program_tree(DLSBL_SOURCE_DIR, {"src"}, &errors);
    ASSERT_TRUE(errors.empty());
    EXPECT_GT(p.files.size(), 40u);  // whole-program, not a sample

    const Facts facts = repo_facts();
    ASSERT_TRUE(facts.errors.empty());
    AnalyzeConfig config = default_config();
    config.taint.sanitized = facts.sanitize_globs();
    const dlsbl::analyze::Filtered filtered = dlsbl::analyze::apply_facts(
        facts, dlsbl::analyze::run_passes(p, config));
    EXPECT_TRUE(filtered.kept.empty()) << dump(filtered.kept);
}

TEST(AnalyzeRepository, ProtocolHasZeroUnsuppressedTaintFlows) {
    std::vector<dlsbl::analyze::BuildError> errors;
    const Program p = build_program_tree(DLSBL_SOURCE_DIR, {"src"}, &errors);
    ASSERT_TRUE(errors.empty());
    const Facts facts = repo_facts();
    AnalyzeConfig config = default_config();
    config.taint.sanitized = facts.sanitize_globs();
    std::vector<Finding> in_protocol;
    for (Finding& f :
         dlsbl::analyze::pass_taint(p, config.taint)) {
        if (f.file.rfind("src/protocol/", 0) == 0 &&
            !facts.suppresses(f)) {
            in_protocol.push_back(std::move(f));
        }
    }
    EXPECT_TRUE(in_protocol.empty()) << dump(in_protocol);
}

TEST(AnalyzeRepository, DispatchSitesAreExhaustiveWithoutSuppression) {
    std::vector<dlsbl::analyze::BuildError> errors;
    const Program p = build_program_tree(DLSBL_SOURCE_DIR, {"src"}, &errors);
    ASSERT_TRUE(errors.empty());
    // No facts applied: both MessageDispatcher sites and the churn ruling
    // must be exhaustive on their own.
    const std::vector<Finding> findings =
        dlsbl::analyze::pass_dispatch(p, default_config().dispatch);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(AnalyzeRepository, LockOrderCleanAfterScopedLockFix) {
    std::vector<dlsbl::analyze::BuildError> errors;
    const Program p = build_program_tree(DLSBL_SOURCE_DIR, {"src"}, &errors);
    ASSERT_TRUE(errors.empty());
    // The tree must stay free of lock-order findings. The real defect this
    // pass once surfaced was metric-merging code in src/obs/metrics.cpp that
    // took two mutexes of one class with sequential lock_guards; that code
    // is gone, and std::scoped_lock is the fix should such a pair return.
    const std::vector<Finding> findings = dlsbl::analyze::pass_lock_order(p);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

}  // namespace

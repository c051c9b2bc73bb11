// E6: Theorems 3.1 / 5.2 — strategyproofness.
//
// Two levels of evidence:
//  (a) mechanism level: the utility-vs-bid curve of every agent peaks at
//      the truthful bid, across random instances, with the deviator free to
//      pick its most favourable execution value (mechanism with
//      verification);
//  (b) protocol level: full DLS-BL-NCP runs in which one processor misreports
//      by a swept factor — its realized utility is maximal at factor 1.
//
// Both sweeps are embarrassingly parallel and go through exec::RunExecutor:
// `thm52_strategyproofness --jobs 8` uses 8 cores, with output byte-identical
// to --jobs 1 (per-task seeds derive from the root seed, results merge in
// submission order).
#include <algorithm>

#include "bench/common.hpp"
#include "mech/properties.hpp"
#include "protocol/runner.hpp"
#include "util/chart.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

const std::vector<double> kFactors{0.25, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0, 3.0};
const std::vector<dlt::NetworkKind> kAllKinds{
    dlt::NetworkKind::kCP, dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE};
const std::vector<dlt::NetworkKind> kProtocolKinds{dlt::NetworkKind::kNcpFE,
                                                   dlt::NetworkKind::kNcpNFE};
constexpr std::size_t kInstancesPerKind = 120;
constexpr std::size_t kInstanceChunk = 30;  // instances per executor task

double protocol_utility(dlt::NetworkKind kind, const std::vector<double>& w,
                        std::size_t agent, double factor) {
    protocol::ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = w;
    config.block_count = 3000;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(w.size(), protocol::Strategy{});
    config.strategies[agent].bid_factor = factor;
    const auto outcome = protocol::run_protocol(config);
    return outcome.processors[agent].utility();
}

}  // namespace

int main(int argc, char** argv) {
    const auto options = bench::parallel_options(argc, argv, /*root_seed=*/42);
    bench::Report report("E6: Theorems 3.1/5.2 — strategyproofness");
    report.manifest().set_uint("seed", options.root_seed);

    // (a) mechanism-level sweep: one executor task per (kind, instance
    // chunk); each task draws its instances from its slot-derived stream.
    report.section("mechanism level: random-instance deviation sweep");
    const std::size_t chunks_per_kind = kInstancesPerKind / kInstanceChunk;
    const auto sweep_results = bench::run_parallel(
        options, kAllKinds.size() * chunks_per_kind, [&](exec::RunSlot& slot) {
            const auto kind = kAllKinds[slot.index() / chunks_per_kind];
            util::Xoshiro256 rng = slot.rng();
            return mech::check_strategyproofness(kind, kInstanceChunk, 8, rng);
        });
    std::size_t violations = 0;
    double worst_gain = 0.0;
    for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
        std::size_t kind_sweeps = 0;
        std::size_t kind_violations = 0;
        for (std::size_t c = 0; c < chunks_per_kind; ++c) {
            const auto& result = sweep_results[k * chunks_per_kind + c];
            kind_sweeps += result.agent_sweeps;
            kind_violations += result.violations;
            worst_gain = std::max(worst_gain, result.worst_gain);
        }
        violations += kind_violations;
        report.line(std::string(dlt::to_string(kAllKinds[k])) + ": " +
                    std::to_string(kind_sweeps) + " agent sweeps, " +
                    std::to_string(kind_violations) + " violations");
    }

    // Utility-vs-bid curve for one representative instance (paper-style plot).
    report.section("utility vs bid factor (agent 2 of {1.0, 2.0, 1.5, 0.8}, NCP-FE)");
    const std::vector<double> w{1.0, 2.0, 1.5, 0.8};
    const auto curve =
        mech::utility_vs_bid(dlt::NetworkKind::kNcpFE, 0.25, w, 1, kFactors);
    util::Series series{"utility", {}, {}};
    util::Table curve_table({"bid factor", "best utility"});
    curve_table.set_precision(6);
    for (const auto& point : curve) {
        series.xs.push_back(point.bid_factor);
        series.ys.push_back(point.best_utility);
        curve_table.add_numeric_row({point.bid_factor, point.best_utility});
    }
    report.text(curve_table.render());
    util::ChartOptions chart;
    chart.x_label = "bid factor (1.0 = truthful)";
    chart.y_label = "utility";
    report.text(util::render_scatter({series}, chart));
    const auto best = std::max_element(
        curve.begin(), curve.end(),
        [](const auto& a, const auto& b) { return a.best_utility < b.best_utility; });

    // (b) protocol-level sweep: one full DLS-BL-NCP run per (kind, factor),
    // all submitted to the executor at once and read back in order.
    report.section("protocol level: realized utility per bid factor (P2)");
    const auto utilities = bench::run_parallel(
        options, kProtocolKinds.size() * kFactors.size(), [&](exec::RunSlot& slot) {
            const auto kind = kProtocolKinds[slot.index() / kFactors.size()];
            const double factor = kFactors[slot.index() % kFactors.size()];
            return protocol_utility(kind, w, 1, factor);
        });
    auto utility_of = [&](std::size_t kind_index, std::size_t factor_index) {
        return utilities[kind_index * kFactors.size() + factor_index];
    };

    util::Table proto_table({"bid factor", "NCP-FE utility", "NCP-NFE utility"});
    proto_table.set_precision(6);
    bool protocol_peak_ok = true;
    for (std::size_t k = 0; k < kProtocolKinds.size(); ++k) {
        double truthful = 0.0;
        double best_factor = 1.0;
        double best_utility = -1e18;
        for (std::size_t f = 0; f < kFactors.size(); ++f) {
            const double utility = utility_of(k, f);
            // Grid literal vs itself: exact. DLSBL_LINT_ALLOW(float-equality)
            if (kFactors[f] == 1.0) truthful = utility;
            if (utility > best_utility + 1e-9) {
                best_utility = utility;
                best_factor = kFactors[f];
            }
        }
        // Block rounding noise: truthful must be within noise of the best.
        if (best_utility > truthful + 1e-3) protocol_peak_ok = false;
        report.line(std::string(dlt::to_string(kProtocolKinds[k])) + ": best factor " +
                    util::Table::format_double(best_factor, 4) + ", truthful utility " +
                    util::Table::format_double(truthful, 6) + ", best utility " +
                    util::Table::format_double(best_utility, 6));
    }
    for (std::size_t f = 0; f < kFactors.size(); ++f) {
        proto_table.add_numeric_row({kFactors[f], utility_of(0, f), utility_of(1, f)});
    }
    report.text(proto_table.render());

    report.section("verdicts");
    report.verdict(violations == 0,
                   "no profitable deviation in any random-instance sweep (worst gain " +
                       util::Table::format_double(worst_gain, 3) + ")");
    // bid_factor is copied from the kFactors grid: exact by construction.
    // DLSBL_LINT_ALLOW(float-equality)
    report.verdict(best->bid_factor == 1.0, "representative curve peaks at factor 1.0");
    report.verdict(protocol_peak_ok,
                   "full protocol runs: truthful bidding maximizes realized utility");
    return report.exit_code();
}

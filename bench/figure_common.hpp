// Shared implementation of the Figure 1/2/3 timing-diagram experiments
// (E1-E3 in DESIGN.md).
//
// Each figure bench reconstructs the paper's execution diagram for its
// network class: the per-processor communication and computation intervals
// under the optimal allocation, the ASCII Gantt chart, and — for the two
// NCP classes the protocol covers — a cross-check that the *simulated*
// DLS-BL-NCP execution reproduces the analytic finishing times.
#pragma once

#include <cmath>
#include <vector>

#include "bench/common.hpp"
#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "dlt/gantt.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/table.hpp"

namespace dlsbl::bench {

inline int run_figure_bench(dlt::NetworkKind kind, const std::string& figure_name,
                            int argc = 0, char** argv = nullptr) {
    const auto exec_options = parallel_options(argc, argv, /*root_seed=*/1);
    Report report("Reproduction of " + figure_name + " — " +
                  std::string(dlt::to_string(kind)) + " timing diagram");

    dlt::ProblemInstance instance;
    instance.kind = kind;
    instance.z = 0.4;
    instance.w = {1.0, 2.0, 1.4, 0.9, 1.7};
    const auto alpha = dlt::optimal_allocation(instance);
    const auto finish = dlt::finishing_times(instance, alpha);
    const auto timelines = dlt::build_timelines(instance, alpha);

    report.section("optimal allocation and intervals (z = 0.4)");
    util::Table table({"proc", "w_i", "alpha_i", "comm start", "comm end",
                       "compute start", "compute end", "T_i (eq)"});
    table.set_precision(5);
    for (std::size_t i = 0; i < timelines.size(); ++i) {
        table.add_numeric_row({static_cast<double>(i + 1), instance.w[i], alpha[i],
                               timelines[i].comm_start, timelines[i].comm_end,
                               timelines[i].compute_start, timelines[i].compute_end,
                               finish[i]});
    }
    report.text(table.render());

    report.section("timing diagram ('-' bus transfer, '#' computation)");
    report.text(dlt::render_figure(instance, alpha));

    // Shape criteria shared by all three figures.
    double max_gap = 0.0;
    for (double t : finish) max_gap = std::max(max_gap, std::abs(t - finish[0]));
    report.verdict(max_gap < 1e-9, "all processors finish simultaneously (Theorem 2.1)");

    bool timeline_matches = true;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
        if (std::abs(timelines[i].compute_end - finish[i]) > 1e-9) timeline_matches = false;
    }
    report.verdict(timeline_matches, "diagram compute-end equals analytic T_i");

    switch (kind) {
        case dlt::NetworkKind::kCP:
            report.verdict(timelines[0].comm_end > timelines[0].comm_start,
                           "P1 receives its load over the bus (control processor "
                           "distributes everything)");
            break;
        case dlt::NetworkKind::kNcpFE:
            // A front-end LO starts computing at exactly t=0 in sim time;
            // this is a structural assertion, not a tolerance check.
            // DLSBL_LINT_ALLOW(float-equality)
            report.verdict(timelines[0].compute_start == 0.0 &&
                               timelines[0].comm_end == timelines[0].comm_start,
                           "front-end LO P1 computes from t=0 with no inbound transfer");
            break;
        case dlt::NetworkKind::kNcpNFE: {
            double comm_total = 0.0;
            for (std::size_t i = 0; i + 1 < alpha.size(); ++i) {
                comm_total += instance.z * alpha[i];
            }
            report.verdict(std::abs(timelines.back().compute_start - comm_total) < 1e-12,
                           "front-end-less LO P_m computes only after all transfers");
            break;
        }
    }

    // The discrete-event protocol reproduces the analytic schedule (NCP only:
    // the CP system is DLS-BL's domain and has no distributed protocol).
    if (kind != dlt::NetworkKind::kCP) {
        protocol::ProtocolConfig config;
        config.kind = kind;
        config.z = instance.z;
        config.true_w = instance.w;
        config.block_count = 6000;
        config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
        // The single simulated run still goes through the executor so the
        // figure benches exercise the same submission path as the sweeps
        // (and inherit its event-capture determinism under --jobs).
        std::string simulated_figure;
        const auto outcome =
            run_parallel(exec_options, 1, [&](exec::RunSlot&) {
                return protocol::run_protocol(
                    config, [&](const protocol::RunInternals& internals) {
                        simulated_figure = util::render_gantt(
                            sim::gantt_from_trace(internals.trace()),
                            {});
                    });
            }).front();

        report.section("simulated execution (rebuilt from the event trace)");
        report.text(simulated_figure);

        report.section("discrete-event simulation cross-check");
        util::Table sim_table({"proc", "analytic T_i", "simulated phi-derived end"});
        sim_table.set_precision(6);
        bool sim_ok = !outcome.terminated_early;
        const double tolerance = 5e-3 * finish[0];
        // The simulated makespan is the last compute end; per-processor ends
        // are analytic-equal at the optimum, so compare the max.
        sim_table.add_numeric_row({0.0, finish[0], outcome.makespan});
        report.text(sim_table.render());
        sim_ok = sim_ok && std::abs(outcome.makespan - finish[0]) < tolerance;
        report.verdict(sim_ok,
                       "simulated protocol makespan matches analytic optimum "
                       "(block-rounding tolerance)");
    }

    return report.exit_code();
}

}  // namespace dlsbl::bench

// perfbench: end-to-end DLS-BL-NCP benchmark (see README.md).
//
//   perfbench --workload bulk_load|wide_bus|disputes --seed N --seconds S
//             --trace 0|1 [--smoke]
//
// Closed loop, one thread: op k+1 starts when op k has returned. The run
// sets up (input generation plus one untimed warm-up run) three times and
// reports the median, then makes ops for --seconds seconds, and never fewer
// than the workload's exact-metric prefix. Every op is checked by the
// oracle. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "probes.hpp"
#include "protocol/detail/run_internals.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
// The phases that carry control traffic in these workloads. Nothing is sent
// before bidding opens; AllocatingLoad and Done carry 0 and 15 bytes.
const char* const kPhases[] = {"Bidding", "ProcessingLoad", "ComputingPayments"};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return std::nullopt;
            args.trace = value == "1";
        } else {
            return std::nullopt;
        }
        if (end != nullptr && *end != '\0') return std::nullopt;
    }
    if (!have_workload || !(args.seconds > 0.0)) return std::nullopt;
    return args;
}

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The highest nearest-rank percentile with at least ten ops above it, and
// never below the median. Returns (value, percentile).
std::pair<double, double> tail(std::vector<double> walls) {
    std::sort(walls.begin(), walls.end());
    const std::size_t n = walls.size();
    const std::size_t rank = std::max(n > 11 ? n - 11 : 0, n / 2);
    return {walls[rank], 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n)};
}

// A traced run the probes are fed from and checked against.
struct ProbeTarget {
    RunInput input;
    dlsbl::protocol::ProtocolOutcome outcome;
    RunCounters counters;
};

struct OpResult {
    double wall_s = 0.0;
    bool traced = false;
    std::vector<RunRecord> records;
};

// One op: every run of it, back to back, timed as one unit. The oracle
// runs after the clock stops. `outcomes` and `counters` receive each run's
// outcome and, when traced, what its observer captured.
OpResult run_op(const std::vector<RunInput>& runs, bool traced,
                std::vector<dlsbl::protocol::ProtocolOutcome>& outcomes,
                std::vector<RunCounters>& counters) {
    namespace protocol = dlsbl::protocol;
    OpResult result;
    result.traced = traced;
    outcomes.clear();
    counters.assign(runs.size(), RunCounters{});
    dlsbl::obs::Profiler::instance().set_enabled(traced);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (traced) {
            outcomes.push_back(protocol::run_protocol(
                runs[i].config, [&counters, i](const protocol::RunInternals& internals) {
                    counters[i] = observe_run(internals);
                }));
        } else {
            outcomes.push_back(protocol::run_protocol(runs[i].config));
        }
    }
    result.wall_s = since(start);
    dlsbl::obs::Profiler::instance().set_enabled(false);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        result.records.push_back(check_run(runs[i], outcomes[i]));
    }
    return result;
}

void print_metric(const Metric& metric) {
    std::printf("  %-34s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
}

int run(const Args& args, Clock::time_point process_start) {
    const auto spec = find_workload(args.workload, args.smoke);
    if (!spec) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const std::size_t m = spec->processors;

    // ---- set-up: input generation + one warm-up run, three times ----------
    std::vector<double> setup_samples;
    std::uint64_t warm_digest = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto start = rep == 0 ? process_start : Clock::now();
        const auto runs = make_op(*spec, args.seed, 0);
        warm_digest = check_run(runs[0], dlsbl::protocol::run_protocol(runs[0].config)).digest;
        setup_samples.push_back(since(start));
    }

    // ---- timed ops ---------------------------------------------------------
    std::vector<OpResult> ops;
    std::vector<std::string> failures;
    std::vector<RunCounters> traced_counters;  // every run of every traced op
    std::optional<ProbeTarget> probe;          // first settled run of a traced op
    std::map<std::string, double> phase_bytes;
    std::uint64_t fines = 0;
    std::uint64_t traced_losers = 0;
    // The traced run needs at least one traced and one untraced op.
    const std::size_t min_ops = std::max<std::size_t>(spec->exact_ops, args.trace ? 2 : 1);
    const auto loop_start = Clock::now();
    for (std::size_t k = 0; k < min_ops || since(loop_start) < args.seconds; ++k) {
        const auto runs = make_op(*spec, args.seed, k);
        // In the traced run, odd ops are traced and even ops are not, so the
        // two medians give the tracing overhead.
        const bool traced = args.trace && k % 2 == 1;
        std::vector<dlsbl::protocol::ProtocolOutcome> outcomes;
        std::vector<RunCounters> counters;
        OpResult op = run_op(runs, traced, outcomes, counters);
        for (const auto& record : op.records) {
            if (!record.failure.empty()) failures.push_back(record.failure);
        }
        if (k == 0 && op.records[0].digest != warm_digest) {
            failures.push_back("op 0 digest differs from its warm-up run");
        }
        if (traced) {
            traced_counters.insert(traced_counters.end(), counters.begin(), counters.end());
            for (const auto& record : op.records) traced_losers += record.truthful_losers;
            for (const auto& outcome : outcomes) {
                fines += outcome.fined_count();
                for (const auto& [phase, bytes] : outcome.bytes_by_phase) {
                    phase_bytes[phase] += static_cast<double>(bytes);
                }
            }
            for (std::size_t i = 0; i < outcomes.size() && !probe; ++i) {
                if (!outcomes[i].terminated_early) {
                    probe = ProbeTarget{runs[i], std::move(outcomes[i]), counters[i]};
                }
            }
        }
        ops.push_back(std::move(op));
    }

    // ---- reduce ------------------------------------------------------------
    std::size_t failed_ops = 0;
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    double makespan = 0.0;
    double user_paid = 0.0;
    double control_bytes = 0.0;
    double losers = 0.0;
    std::size_t exact_runs = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const OpResult& op = ops[k];
        bool op_failed = false;
        for (const auto& r : op.records) op_failed = op_failed || !r.failure.empty();
        failed_ops += op_failed ? 1 : 0;
        (op.traced ? traced_walls : untraced_walls).push_back(op.wall_s);
        if (k >= spec->exact_ops) continue;
        for (const auto& r : op.records) {
            makespan += r.makespan;
            user_paid += r.user_paid;
            control_bytes += static_cast<double>(r.control_bytes);
            losers += static_cast<double>(r.truthful_losers);
            digest = (digest ^ r.digest) * 0x100000001b3ull;
            ++exact_runs;
        }
    }
    const auto mean = [&](double total) { return total / static_cast<double>(exact_runs); };

    std::printf("perfbench workload=%s%s seed=%" PRIu64 " m=%zu B=%zu trace=%d\n",
                spec->name.c_str(), args.smoke ? " (smoke)" : "", args.seed, m, spec->blocks,
                args.trace ? 1 : 0);
    std::printf("  ops=%zu (exact-metric prefix %zu, %zu protocol runs) seconds=%.1f\n",
                ops.size(), spec->exact_ops, exact_runs, since(loop_start));
    std::printf("  outcome_digest=%016" PRIx64 "\n", digest);

    std::vector<Metric> metrics;
    if (!args.trace) {
        const auto [tail_s, tail_pct] = tail(untraced_walls);
        metrics = {
            {"op_wall_s.p50", median(untraced_walls), "s"},
            {"op_wall_s.tail", tail_s, "s"},
            {"setup_s", median(setup_samples), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"sim_makespan_s", mean(makespan), "s"},
            {"user_paid", mean(user_paid), "money"},
            {"control_bytes", mean(control_bytes), "bytes"},
        };
        std::printf("  op_wall_s.tail is p%.0f of %zu ops\n", tail_pct, untraced_walls.size());
        // Reported, not gated: 0 is its target value (see README.md).
        std::printf("  truthful_losers %.6g per run\n", mean(losers));
    } else {
        // Profiler scopes and run counters, per traced op.
        const double traced_ops = static_cast<double>(traced_walls.size());
        const double runs_per_op = static_cast<double>(traced_counters.size()) / traced_ops;
        auto& profiler = dlsbl::obs::Profiler::instance();
        const auto per_op_s = [&](const char* scope) {
            return static_cast<double>(profiler.total_ns(scope)) / 1e9 / traced_ops;
        };
        const auto per_op_calls = [&](const char* scope) {
            return static_cast<double>(profiler.total_calls(scope)) / traced_ops;
        };
        RunCounters sum;
        for (const auto& c : traced_counters) {
            sum.trace_events += c.trace_events;
            sum.load_transfers += c.load_transfers;
            sum.disputes_opened += c.disputes_opened;
            sum.cache_hits += c.cache_hits;
            sum.cache_misses += c.cache_misses;
        }
        const ScopeTotals scopes = scope_totals();
        const double solves = per_op_calls("allocation_solve");
        // Distinct allocation problems per run: the full system plus the m
        // leave-one-out systems.
        const double useful = runs_per_op * static_cast<double>(m + 1);
        if (!spec->disputes &&
            profiler.total_calls("allocation_solve") !=
                traced_walls.size() * m * (m + 2)) {
            failures.push_back("allocation_solve calls per honest run != m(m+2)");
        }
        const double attempts = static_cast<double>(sum.cache_hits + sum.cache_misses);
        metrics = {
            {"crypto.mss_keygen_s", per_op_s("mss_keygen"), "s"},
            {"crypto.mss_sign.calls", per_op_calls("mss_sign"), "count"},
            {"crypto.mss_verify_batch.calls", per_op_calls("mss_verify_batch"), "count"},
            {"crypto.verify_cache_hit_ratio",
             attempts > 0.0 ? static_cast<double>(sum.cache_hits) / attempts : 0.0, "ratio"},
            {"protocol.run_s", scopes.run_s / traced_ops, "s"},
            {"protocol.unattributed_share",
             scopes.run_s > 0.0 ? scopes.unattributed_s / scopes.run_s : 0.0, "ratio"},
            {"protocol.load_transfers", static_cast<double>(sum.load_transfers) / traced_ops,
             "count"},
            {"protocol.disputes_opened", static_cast<double>(sum.disputes_opened) / traced_ops,
             "count"},
            {"protocol.fines", static_cast<double>(fines) / traced_ops, "count"},
            {"mech.truthful_losers",
             static_cast<double>(traced_losers) / static_cast<double>(traced_counters.size()),
             "count"},
            {"dlt.allocation_solve.calls", solves, "count"},
            {"dlt.solve_useful_ratio", solves > 0.0 ? useful / solves : 0.0, "ratio"},
            {"sim.events", static_cast<double>(sum.trace_events) / traced_ops, "count"},
            {"sim.event_loop_s", per_op_s("sim_event_loop"), "s"},
            {"obs.trace_overhead", median(traced_walls) / median(untraced_walls) - 1.0,
             "ratio"},
        };
        for (const char* phase : kPhases) {
            const auto it = phase_bytes.find(phase);
            metrics.push_back({std::string("protocol.control_bytes.") + phase,
                               it == phase_bytes.end() ? 0.0 : it->second / traced_ops,
                               "bytes"});
        }
        if (!probe) {
            failures.push_back("no settled run to probe");
        } else {
            run_probes(probe->input, probe->outcome, probe->counters, metrics, failures);
        }
    }
    for (const auto& metric : metrics) print_metric(metric);
    std::printf("  failed_ratio %.6g (%zu of %zu ops)\n",
                static_cast<double>(failed_ops) / static_cast<double>(ops.size()), failed_ops,
                ops.size());
    std::map<std::string, std::size_t> distinct;
    for (const auto& failure : failures) ++distinct[failure];
    for (const auto& [failure, count] : distinct) {
        std::printf("  FAILED (%zux): %s\n", count, failure.c_str());
    }

    std::string json = "{\"correct\": ";
    json += failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ops.size());
    json += ", \"failed\": " + std::to_string(failed_ops);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto process_start = Clock::now();
    const auto args = parse_args(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: perfbench --workload bulk_load|wide_bus|disputes --seed N "
                     "--seconds S --trace 0|1 [--smoke]\n");
        return 2;
    }
    try {
        return run(*args, process_start);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

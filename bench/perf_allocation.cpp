// E14: engineering microbenchmarks for the scheduling substrate —
// closed-form O(m) allocation vs the O(m³) Gaussian-elimination
// cross-check, finishing-time evaluation, the leave-one-out makespans of
// the DLS-BL bonus (one row, and all m rows in one batched pass), and the
// exact-rational path.
//
// `--json-out PATH` writes a BENCH_allocation.json document (see
// bench/bench_json.hpp) with the closed-form-over-solver speedup and the
// all-rows-over-row-by-row speedup derived.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bench/bench_gbench.hpp"
#include "bench/bench_json.hpp"
#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "dlt/linear_solver.hpp"
#include "dlt/sequencing.hpp"
#include "util/rational.hpp"

using namespace dlsbl;

namespace {

dlt::ProblemInstance make_instance(std::size_t m, dlt::NetworkKind kind) {
    dlt::ProblemInstance instance;
    instance.kind = kind;
    instance.z = 0.2;
    instance.w.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        instance.w[i] = 0.7 + 0.31 * static_cast<double>((i * 7) % 11);
    }
    return instance;
}

void BM_ClosedFormAllocation(benchmark::State& state) {
    const auto instance =
        make_instance(static_cast<std::size_t>(state.range(0)), dlt::NetworkKind::kNcpFE);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dlt::optimal_allocation(instance));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClosedFormAllocation)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void BM_GaussianSolverAllocation(benchmark::State& state) {
    const auto instance =
        make_instance(static_cast<std::size_t>(state.range(0)), dlt::NetworkKind::kNcpFE);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dlt::optimal_allocation_by_solver(instance));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GaussianSolverAllocation)->RangeMultiplier(4)->Range(4, 256)->Complexity();

void BM_FinishingTimes(benchmark::State& state) {
    const auto instance =
        make_instance(static_cast<std::size_t>(state.range(0)), dlt::NetworkKind::kNcpNFE);
    const auto alpha = dlt::optimal_allocation(instance);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dlt::finishing_times(instance, alpha));
    }
}
BENCHMARK(BM_FinishingTimes)->RangeMultiplier(4)->Range(4, 1024);

void BM_LeaveOneOutMakespan(benchmark::State& state) {
    const auto instance =
        make_instance(static_cast<std::size_t>(state.range(0)), dlt::NetworkKind::kNcpFE);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dlt::leave_one_out_makespan(instance, 1));
    }
}
BENCHMARK(BM_LeaveOneOutMakespan)->RangeMultiplier(4)->Range(4, 256);

// A whole payment vector's rows: what DlsBl::payments solves.
void BM_LeaveOneOutMakespans(benchmark::State& state) {
    const auto instance =
        make_instance(static_cast<std::size_t>(state.range(0)), dlt::NetworkKind::kNcpFE);
    std::vector<double> rows(instance.processor_count());
    for (auto _ : state) {
        dlt::leave_one_out_makespans(instance, rows);
        benchmark::DoNotOptimize(rows.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LeaveOneOutMakespans)->RangeMultiplier(4)->Range(16, 1024);

void BM_ExactRationalAllocation(benchmark::State& state) {
    const std::size_t m = static_cast<std::size_t>(state.range(0));
    std::vector<util::Rational> w;
    for (std::size_t i = 1; i <= m; ++i) {
        w.emplace_back(util::BigInt{static_cast<std::int64_t>(2 * i + 1)},
                       util::BigInt{static_cast<std::int64_t>(i + 1)});
    }
    const util::Rational z = util::Rational::parse("1/5");
    for (auto _ : state) {
        benchmark::DoNotOptimize(dlt::optimal_allocation_generic<util::Rational>(
            dlt::NetworkKind::kNcpFE, std::span<const util::Rational>(w), z));
    }
}
BENCHMARK(BM_ExactRationalAllocation)->RangeMultiplier(2)->Range(2, 16);

}  // namespace

int main(int argc, char** argv) {
    const auto json_out = bench::json_out_from_args(&argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_out) return 0;

    obs::RunManifest manifest;
    manifest.set("bench", "perf_allocation (E14)");
    std::map<std::string, double> derived;
    derived["closed_form_over_solver_m256"] = bench::speedup(
        reporter, "BM_GaussianSolverAllocation/256", "BM_ClosedFormAllocation/256");
    // 256 single rows against one pass over all 256.
    derived["loo_all_rows_speedup_m256"] =
        256.0 * bench::speedup(reporter, "BM_LeaveOneOutMakespan/256",
                               "BM_LeaveOneOutMakespans/256");
    return bench::write_bench_json(*json_out, manifest, reporter.results(), derived)
               ? 0
               : 1;
}

// Deterministic parallel execution of independent protocol / DLT runs.
//
//     exec::RunExecutor pool({.jobs = 8, .root_seed = 42});
//     auto rows = pool.map(n, [&](exec::RunSlot& slot) {
//         auto config = make_config(slot.seed());
//         return protocol::run_protocol(config).makespan;
//     });
//
// Determinism contract (the point of this class):
//   * every run's seed is util::derive_seed(root_seed, index) — a pure
//     function of the root seed and the run's submission index, never of
//     which worker picked the task up;
//   * every run's obs events are captured in a per-run EventBuffer
//     (EventLog::set_thread_buffer) and replayed through the process sinks
//     in submission order after the batch, so JSONL artifacts are
//     byte-identical at --jobs 1 and --jobs 64;
//   * map() returns results indexed by submission order.
// Runs that count into MetricsRegistry::global() use commutative atomic
// increments, so its snapshot is schedule-independent too.
//
// Scheduling: workers claim tasks in submission order from one shared
// atomic cursor, so a handful of slow runs (large m, hash-heavy
// signatures) hold up only the workers running them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace dlsbl::exec {

struct ExecutorOptions {
    // Worker threads; 0 = one per hardware thread, 1 = run inline on the
    // calling thread (no threads spawned — handy under a debugger).
    std::size_t jobs = 1;
    // Root of the per-run seed derivation.
    std::uint64_t root_seed = 1;
};

// Everything one run is allowed to touch: its identity (submission index)
// and its derived seed.
class RunSlot {
 public:
    RunSlot(std::size_t index, std::uint64_t seed) : index_(index), seed_(seed) {}

    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    // Fresh generator seeded for this run (independent across runs).
    [[nodiscard]] util::Xoshiro256 rng() const noexcept {
        return util::Xoshiro256{seed_};
    }

 private:
    std::size_t index_;
    std::uint64_t seed_;
};

class RunExecutor {
 public:
    explicit RunExecutor(ExecutorOptions options = {});

    // Effective worker count (>= 1; the jobs=0 default is resolved here).
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
    [[nodiscard]] std::uint64_t root_seed() const noexcept { return options_.root_seed; }

    // Parses "--jobs N" / "-j N" out of argv (removing nothing; unknown
    // arguments are ignored) and falls back to the DLSBL_JOBS environment
    // variable, then to `fallback`. Shared by benches and the CLI.
    static std::size_t jobs_from_args(int argc, char** argv, std::size_t fallback = 1);

    // Runs body(slot) for every index in [0, count) and returns the results
    // in submission order. The callable may return void (use for_each) or
    // any move-constructible value.
    template <typename Fn>
    auto map(std::size_t count, Fn&& body)
        -> std::vector<std::invoke_result_t<Fn&, RunSlot&>> {
        using R = std::invoke_result_t<Fn&, RunSlot&>;
        static_assert(!std::is_void_v<R>, "use for_each for void bodies");
        std::vector<std::optional<R>> staged(count);
        run_tasks(count, [&](RunSlot& slot) { staged[slot.index()] = body(slot); });
        std::vector<R> results;
        results.reserve(count);
        for (auto& value : staged) results.push_back(std::move(*value));
        return results;
    }

    template <typename Fn>
    void for_each(std::size_t count, Fn&& body) {
        run_tasks(count, std::function<void(RunSlot&)>(std::forward<Fn>(body)));
    }

 private:
    void run_tasks(std::size_t count, const std::function<void(RunSlot&)>& body);

    ExecutorOptions options_;
    std::size_t jobs_;
};

}  // namespace dlsbl::exec

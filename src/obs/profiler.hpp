// Scoped wall-clock profiler.
//
//     OBS_SCOPE("allocation_solve");
//     OBS_SCOPE("allocation_solve", rows);
//
// opens a RAII scope attributed to the current position in the scope tree;
// nested scopes build a hierarchy (protocol_run -> sim_event_loop ->
// allocation_solve -> linear_solve). A scope counts as one call unless it
// is given a call count: a batched kernel that does `rows` solves in one
// pass records `rows` calls and one duration, so call counts stay counts
// of work done. Disabled (the default) a scope costs one predicted branch,
// so the hooks stay compiled into the hot paths — the DLT solver, the
// hash-based signing paths, the sim event loop — without taxing them.
//
// The report is wall-clock and therefore intentionally *not* part of the
// deterministic run artifacts (JSONL / catapult / metrics); it is a human
// diagnostic printed on demand.
//
// Thread-aware: each thread keeps its own cursor into the scope tree
// (nested scopes on one thread build a hierarchy as before); the tree
// itself is mutex-guarded, so exec::RunExecutor workers can profile
// concurrently — their scope counts simply aggregate into shared nodes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dlsbl::obs {

class Profiler {
 public:
    static Profiler& instance();

    void set_enabled(bool enabled) noexcept {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    // Drops all recorded scopes (keeps the enabled flag).
    void reset();

    // Hierarchical text report: one line per scope-tree node with call
    // count, inclusive wall time and share of the parent's time. Children
    // are ordered by first entry, which is deterministic for a
    // deterministic program even though the times are not.
    [[nodiscard]] std::string report() const;

    // Total inclusive nanoseconds recorded for `name` anywhere in the tree
    // (tests use this to assert a scope actually ran).
    [[nodiscard]] std::uint64_t total_ns(const std::string& name) const;
    [[nodiscard]] std::uint64_t total_calls(const std::string& name) const;

    // --- internal interface used by ScopedTimer ------------------------------
    std::size_t enter(const char* name);
    // Adds one duration and `calls` calls to the node.
    void leave(std::size_t node_index, std::uint64_t elapsed_ns, std::uint64_t calls);

 private:
    struct Node {
        std::string name;
        std::size_t parent = 0;
        std::vector<std::size_t> children;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    Profiler();
    void report_node(std::string& out, std::size_t index, int depth) const;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;  // guards nodes_ and generation_
    std::vector<Node> nodes_;   // nodes_[0] is the synthetic root
    // Bumped by reset() so stale per-thread cursors re-anchor at the root.
    std::uint64_t generation_ = 0;
};

class ScopedTimer {
 public:
    explicit ScopedTimer(const char* name, std::uint64_t calls = 1) {
        auto& profiler = Profiler::instance();
        if (!profiler.enabled()) return;
        active_ = true;
        calls_ = calls;
        node_ = profiler.enter(name);
        start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer() {
        if (!active_) return;
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        Profiler::instance().leave(
            node_, static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                           .count()),
            calls_);
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
    bool active_ = false;
    std::size_t node_ = 0;
    std::uint64_t calls_ = 0;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace dlsbl::obs

#define DLSBL_OBS_CONCAT_INNER(a, b) a##b
#define DLSBL_OBS_CONCAT(a, b) DLSBL_OBS_CONCAT_INNER(a, b)
// OBS_SCOPE(name) or OBS_SCOPE(name, calls).
#define OBS_SCOPE(...) \
    ::dlsbl::obs::ScopedTimer DLSBL_OBS_CONCAT(obs_scope_, __LINE__)(__VA_ARGS__)

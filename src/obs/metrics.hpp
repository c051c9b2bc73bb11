// Metrics registry: counters, gauges and fixed-bucket histograms with
// Prometheus-style text export and a JSON snapshot (embedded in the
// RunManifest).
//
// Two usage patterns:
//   * per-run — protocol::RunContext owns a registry, so one run's referee
//     counters and re-hosted NetworkMetrics phase counters can be asserted
//     and dumped in isolation;
//   * process-wide — MetricsRegistry::global() accumulates across runs
//     (bench manifests snapshot it).
//
// Export order is lexicographic in (metric name, label set), so two
// identical runs produce byte-identical dumps. Instruments live behind
// node-based maps: references returned by counter()/gauge()/histogram()
// stay valid for the registry's lifetime.
//
// Thread safety: instrument lookup/creation and the export/clear paths
// are guarded by an internal mutex; Counter and Gauge updates are
// lock-free atomics and Histogram::observe takes a per-histogram lock, so
// concurrent runs (exec::RunExecutor workers) may hammer the global
// registry without data races. Counter increments commute, which is what
// keeps the global snapshot deterministic regardless of --jobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dlsbl::obs {

// Ordered key=value pairs, rendered Prometheus-style: {k1="v1",k2="v2"}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
    void inc(std::uint64_t delta = 1) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

 private:
    std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
    void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
    void add(double delta) noexcept {
        double current = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(current, current + delta,
                                             std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

 private:
    std::atomic<double> value_{0.0};
};

class Histogram {
 public:
    // `upper_bounds` must be strictly increasing; an implicit +Inf bucket is
    // appended.
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double value);

    [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
        return upper_bounds_;
    }
    // Cumulative count per bound (Prometheus "le" semantics), +Inf last.
    [[nodiscard]] std::vector<std::uint64_t> cumulative_counts() const;
    [[nodiscard]] std::uint64_t count() const noexcept;
    [[nodiscard]] double sum() const noexcept;

 private:
    std::vector<double> upper_bounds_;
    mutable std::mutex mutex_;                  // guards the mutable tallies
    std::vector<std::uint64_t> bucket_counts_;  // per-bucket, +Inf last
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

class MetricsRegistry {
 public:
    // Process-wide instance (benches, profiler summaries).
    static MetricsRegistry& global();

    // Returns the instrument for (name, labels), creating it on first use.
    Counter& counter(const std::string& name, const Labels& labels = {});
    Gauge& gauge(const std::string& name, const Labels& labels = {});
    // `upper_bounds` is used only on first creation of (name, labels).
    Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                         const Labels& labels = {});

    // Optional HELP text attached to a metric name.
    void set_help(const std::string& name, std::string help);

    // Prometheus text exposition format; deterministic ordering.
    [[nodiscard]] std::string prometheus_text() const;

    // Flat JSON object {"name{labels}": value, ...}; histograms contribute
    // _count and _sum entries. Deterministic ordering.
    [[nodiscard]] std::string json_snapshot() const;

    void clear();

 private:
    static std::string render_labels(const Labels& labels);

    mutable std::mutex mutex_;  // guards map structure + help text
    std::map<std::string, std::map<std::string, Counter>> counters_;
    std::map<std::string, std::map<std::string, Gauge>> gauges_;
    std::map<std::string, std::map<std::string, Histogram>> histograms_;
    std::map<std::string, std::string> help_;
};

}  // namespace dlsbl::obs

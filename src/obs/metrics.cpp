#include "obs/metrics.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace dlsbl::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      bucket_counts_(upper_bounds_.size() + 1, 0) {
    for (std::size_t i = 1; i < upper_bounds_.size(); ++i) {
        if (!(upper_bounds_[i - 1] < upper_bounds_[i])) {
            throw std::invalid_argument("Histogram: bounds not strictly increasing");
        }
    }
}

void Histogram::observe(double value) {
    std::size_t bucket = upper_bounds_.size();  // +Inf
    for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
        if (value <= upper_bounds_[i]) {
            bucket = i;
            break;
        }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++bucket_counts_[bucket];
    ++count_;
    sum_ += value;
}

std::vector<std::uint64_t> Histogram::cumulative_counts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> out(bucket_counts_.size());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < bucket_counts_.size(); ++i) {
        running += bucket_counts_[i];
        out[i] = running;
    }
    return out;
}

std::uint64_t Histogram::count() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double Histogram::sum() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

std::string MetricsRegistry::render_labels(const Labels& labels) {
    if (labels.empty()) return {};
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i != 0) out += ',';
        out += labels[i].first + '=';
        // Prometheus label values use the same escapes JSON does.
        out += json_escape(labels[i].second);
    }
    out += '}';
    return out;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name][render_labels(labels)];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[name][render_labels(labels)];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& by_labels = histograms_[name];
    const std::string key = render_labels(labels);
    const auto it = by_labels.find(key);
    if (it != by_labels.end()) return it->second;
    return by_labels.try_emplace(key, std::move(upper_bounds)).first->second;
}

void MetricsRegistry::set_help(const std::string& name, std::string help) {
    const std::lock_guard<std::mutex> lock(mutex_);
    help_[name] = std::move(help);
}

std::string MetricsRegistry::prometheus_text() const {
    // Splices a raw k="v" fragment into an already rendered label set.
    auto splice = [](const std::string& labels, const std::string& fragment) {
        if (labels.empty()) return "{" + fragment + '}';
        return labels.substr(0, labels.size() - 1) + ',' + fragment + '}';
    };

    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    auto header = [&](const std::string& name, const char* type) {
        if (const auto it = help_.find(name); it != help_.end()) {
            out += "# HELP " + name + ' ' + it->second + '\n';
        }
        out += "# TYPE " + name + ' ' + type + '\n';
    };
    for (const auto& [name, series] : counters_) {
        header(name, "counter");
        for (const auto& [labels, counter] : series) {
            out += name + labels + ' ' + std::to_string(counter.value()) + '\n';
        }
    }
    for (const auto& [name, series] : gauges_) {
        header(name, "gauge");
        for (const auto& [labels, gauge] : series) {
            out += name + labels + ' ' + json_number(gauge.value()) + '\n';
        }
    }
    for (const auto& [name, series] : histograms_) {
        header(name, "histogram");
        for (const auto& [labels, histogram] : series) {
            const auto cumulative = histogram.cumulative_counts();
            const auto& bounds = histogram.upper_bounds();
            for (std::size_t i = 0; i < cumulative.size(); ++i) {
                const std::string le =
                    i < bounds.size() ? json_number(bounds[i]) : std::string("+Inf");
                out += name + "_bucket" + splice(labels, "le=\"" + le + "\"") + ' ' +
                       std::to_string(cumulative[i]) + '\n';
            }
            out += name + "_sum" + labels + ' ' + json_number(histogram.sum()) + '\n';
            out += name + "_count" + labels + ' ' + std::to_string(histogram.count()) +
                   '\n';
        }
    }
    return out;
}

std::string MetricsRegistry::json_snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{";
    bool first = true;
    auto emit = [&](const std::string& key, const std::string& literal) {
        if (!first) out += ',';
        first = false;
        out += json_escape(key) + ':' + literal;
    };
    for (const auto& [name, series] : counters_) {
        for (const auto& [labels, counter] : series) {
            emit(name + labels, std::to_string(counter.value()));
        }
    }
    for (const auto& [name, series] : gauges_) {
        for (const auto& [labels, gauge] : series) {
            emit(name + labels, json_number(gauge.value()));
        }
    }
    for (const auto& [name, series] : histograms_) {
        for (const auto& [labels, histogram] : series) {
            emit(name + "_count" + labels, std::to_string(histogram.count()));
            emit(name + "_sum" + labels, json_number(histogram.sum()));
        }
    }
    out += '}';
    return out;
}

void MetricsRegistry::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    help_.clear();
}

}  // namespace dlsbl::obs

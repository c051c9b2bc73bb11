#include "protocol/churn.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dlsbl::protocol {

const char* to_string(ChurnEventKind kind) noexcept {
    switch (kind) {
        case ChurnEventKind::kCrash: return "crash";
        case ChurnEventKind::kRestart: return "restart";
        case ChurnEventKind::kRestartStale: return "restale";
    }
    return "unknown";
}

void ChurnPlan::validate() const {
    auto check_name = [](const std::string& name) {
        if (name.empty() || name == "referee" || name == "user") {
            throw std::invalid_argument("churn plan: only processors churn, got '" +
                                        name + "'");
        }
    };
    // Written so that NaN fails every check: an instant is finite and >= 0,
    // and a window [begin, end) may stay open (end = +inf) but never ends
    // before it begins.
    const auto instant = [](double t) { return std::isfinite(t) && t >= 0.0; };
    const auto positive = [&](double t) { return instant(t) && t > 0.0; };
    const auto window = [&](double begin, double end) {
        return instant(begin) && end >= begin;
    };
    for (const auto& event : events) {
        check_name(event.processor);
        if (!instant(event.time)) {
            throw std::invalid_argument("churn plan: event time not finite and >= 0");
        }
    }
    for (const auto& loss : losses) {
        check_name(loss.processor);
        if (!window(loss.begin, loss.end)) {
            throw std::invalid_argument("churn plan: bad loss window");
        }
    }
    for (const auto& delay : delays) {
        check_name(delay.processor);
        if (!window(delay.begin, delay.end) || !instant(delay.delay)) {
            throw std::invalid_argument("churn plan: bad delay window");
        }
    }
    if (!positive(policy.bid_timeout) || !instant(policy.detection_timeout) ||
        !positive(policy.processing_grace) || !positive(policy.payment_timeout)) {
        throw std::invalid_argument("churn plan: bad policy deadline");
    }
}

bool ChurnPlan::down(const std::string& name, double t) const {
    // Walk the event list in time order for `name`: the latest event at or
    // before t decides. Events are few, so a linear scan stays simple and
    // allocation-free.
    bool is_down = false;
    double best = -1.0;
    for (const auto& event : events) {
        if (event.processor != name || event.time > t) continue;
        if (event.time < best) continue;
        // Same-instant tie: a restart at the crash instant wins (half-open
        // down interval [crash, restart)).
        if (event.time == best && event.kind == ChurnEventKind::kCrash) continue;
        best = event.time;
        is_down = event.kind == ChurnEventKind::kCrash;
    }
    return is_down;
}

std::optional<double> ChurnPlan::first_crash_in(const std::string& name, double begin,
                                                double end) const {
    std::optional<double> earliest;
    for (const auto& event : events) {
        if (event.processor != name || event.kind != ChurnEventKind::kCrash) continue;
        if (event.time < begin || event.time >= end) continue;
        if (!earliest || event.time < *earliest) earliest = event.time;
    }
    return earliest;
}

bool ChurnPlan::cut(const std::string& name, double t) const {
    if (down(name, t)) return true;
    for (const auto& loss : losses) {
        if (loss.processor == name && t >= loss.begin && t < loss.end) return true;
    }
    return false;
}

double ChurnPlan::delivery_delay(const std::string& name, double t) const {
    double total = 0.0;
    for (const auto& window : delays) {
        if (window.processor == name && t >= window.begin && t < window.end) {
            total += window.delay;
        }
    }
    return total;
}

std::vector<double> ChurnPlan::stale_rejoin_times(const std::string& name) const {
    std::vector<double> times;
    for (const auto& event : events) {
        if (event.processor == name && event.kind == ChurnEventKind::kRestartStale) {
            times.push_back(event.time);
        }
    }
    std::sort(times.begin(), times.end());
    return times;
}

// ---- binary codec ----------------------------------------------------------

namespace {

template <typename Fn>
auto parse_guard(Fn&& fn) -> decltype(fn()) {
    try {
        return fn();
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

}  // namespace

util::Bytes ChurnPlan::serialize() const {
    util::ByteWriter w;
    w.str("churn");
    w.f64(policy.bid_timeout);
    w.f64(policy.detection_timeout);
    w.f64(policy.processing_grace);
    w.f64(policy.payment_timeout);
    w.u64(events.size());
    for (const auto& event : events) {
        w.str(event.processor);
        w.f64(event.time);
        w.u8(static_cast<std::uint8_t>(event.kind));
    }
    w.u64(losses.size());
    for (const auto& loss : losses) {
        w.str(loss.processor);
        w.f64(loss.begin);
        w.f64(loss.end);
    }
    w.u64(delays.size());
    for (const auto& delay : delays) {
        w.str(delay.processor);
        w.f64(delay.begin);
        w.f64(delay.end);
        w.f64(delay.delay);
    }
    return w.take();
}

std::optional<ChurnPlan> ChurnPlan::deserialize(std::span<const std::uint8_t> data) {
    return parse_guard([&]() -> std::optional<ChurnPlan> {
        util::ByteReader r(data);
        if (r.str() != "churn") return std::nullopt;
        ChurnPlan plan;
        plan.policy.bid_timeout = r.f64();
        plan.policy.detection_timeout = r.f64();
        plan.policy.processing_grace = r.f64();
        plan.policy.payment_timeout = r.f64();
        const std::uint64_t n_events = r.u64();
        if (n_events > 1 << 20) return std::nullopt;
        plan.events.reserve(n_events);
        for (std::uint64_t i = 0; i < n_events; ++i) {
            ChurnEvent event;
            event.processor = r.str();
            event.time = r.f64();
            const std::uint8_t kind = r.u8();
            if (kind < 1 || kind > 3) return std::nullopt;
            event.kind = static_cast<ChurnEventKind>(kind);
            plan.events.push_back(std::move(event));
        }
        const std::uint64_t n_losses = r.u64();
        if (n_losses > 1 << 20) return std::nullopt;
        plan.losses.reserve(n_losses);
        for (std::uint64_t i = 0; i < n_losses; ++i) {
            LossWindow loss;
            loss.processor = r.str();
            loss.begin = r.f64();
            loss.end = r.f64();
            plan.losses.push_back(std::move(loss));
        }
        const std::uint64_t n_delays = r.u64();
        if (n_delays > 1 << 20) return std::nullopt;
        plan.delays.reserve(n_delays);
        for (std::uint64_t i = 0; i < n_delays; ++i) {
            DelayWindow delay;
            delay.processor = r.str();
            delay.begin = r.f64();
            delay.end = r.f64();
            delay.delay = r.f64();
            plan.delays.push_back(std::move(delay));
        }
        if (!r.exhausted()) return std::nullopt;
        return plan;
    });
}

// ---- text spec -------------------------------------------------------------

namespace {

std::string fmt_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

// Reads one double starting at *pos; advances *pos past it. Returns nullopt
// if no number starts there.
std::optional<double> read_double(std::string_view text, std::size_t* pos) {
    if (*pos >= text.size()) return std::nullopt;
    const std::string chunk(text.substr(*pos));
    char* end = nullptr;
    const double value = std::strtod(chunk.c_str(), &end);
    if (end == chunk.c_str()) return std::nullopt;
    *pos += static_cast<std::size_t>(end - chunk.c_str());
    return value;
}

// Reads "Name@" (identifier up to '@'); advances past the '@'.
std::optional<std::string> read_actor(std::string_view text, std::size_t* pos) {
    const auto at = text.find('@', *pos);
    if (at == std::string_view::npos || at == *pos) return std::nullopt;
    std::string name(text.substr(*pos, at - *pos));
    *pos = at + 1;
    return name;
}

bool expect_char(std::string_view text, std::size_t* pos, char c) {
    if (*pos >= text.size() || text[*pos] != c) return false;
    ++*pos;
    return true;
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
}

}  // namespace

std::string ChurnPlan::spec() const {
    std::string out;
    auto append = [&out](const std::string& segment) {
        if (!out.empty()) out += ';';
        out += segment;
    };
    for (const auto& event : events) {
        append(std::string(to_string(event.kind)) + ":" + event.processor + "@" +
               fmt_double(event.time));
    }
    for (const auto& loss : losses) {
        append("loss:" + loss.processor + "@" + fmt_double(loss.begin) + "-" +
               fmt_double(loss.end));
    }
    for (const auto& delay : delays) {
        append("delay:" + delay.processor + "@" + fmt_double(delay.begin) + "-" +
               fmt_double(delay.end) + "+" + fmt_double(delay.delay));
    }
    append("policy:bid=" + fmt_double(policy.bid_timeout) +
           ",detect=" + fmt_double(policy.detection_timeout) +
           ",grace=" + fmt_double(policy.processing_grace) +
           ",pay=" + fmt_double(policy.payment_timeout));
    return out;
}

std::optional<ChurnPlan> ChurnPlan::parse(std::string_view text) {
    ChurnPlan plan;
    std::size_t start = 0;
    while (start <= text.size()) {
        auto semi = text.find(';', start);
        if (semi == std::string_view::npos) semi = text.size();
        const std::string_view segment = trim(text.substr(start, semi - start));
        start = semi + 1;
        if (segment.empty()) continue;
        const auto colon = segment.find(':');
        if (colon == std::string_view::npos) return std::nullopt;
        const std::string_view kind = segment.substr(0, colon);
        const std::string_view rest = segment.substr(colon + 1);
        std::size_t pos = 0;
        if (kind == "crash" || kind == "restart" || kind == "restale") {
            ChurnEvent event;
            auto actor = read_actor(rest, &pos);
            auto time = read_double(rest, &pos);
            if (!actor || !time || pos != rest.size()) return std::nullopt;
            event.processor = std::move(*actor);
            event.time = *time;
            event.kind = kind == "crash"     ? ChurnEventKind::kCrash
                         : kind == "restart" ? ChurnEventKind::kRestart
                                             : ChurnEventKind::kRestartStale;
            plan.events.push_back(std::move(event));
        } else if (kind == "loss") {
            LossWindow loss;
            auto actor = read_actor(rest, &pos);
            auto begin = read_double(rest, &pos);
            if (!actor || !begin || !expect_char(rest, &pos, '-')) return std::nullopt;
            auto end = read_double(rest, &pos);
            if (!end || pos != rest.size()) return std::nullopt;
            loss.processor = std::move(*actor);
            loss.begin = *begin;
            loss.end = *end;
            plan.losses.push_back(std::move(loss));
        } else if (kind == "delay") {
            DelayWindow delay;
            auto actor = read_actor(rest, &pos);
            auto begin = read_double(rest, &pos);
            if (!actor || !begin || !expect_char(rest, &pos, '-')) return std::nullopt;
            auto end = read_double(rest, &pos);
            if (!end || !expect_char(rest, &pos, '+')) return std::nullopt;
            auto extra = read_double(rest, &pos);
            if (!extra || pos != rest.size()) return std::nullopt;
            delay.processor = std::move(*actor);
            delay.begin = *begin;
            delay.end = *end;
            delay.delay = *extra;
            plan.delays.push_back(std::move(delay));
        } else if (kind == "policy") {
            std::size_t field_start = 0;
            const std::string fields(rest);
            while (field_start <= fields.size()) {
                auto comma = fields.find(',', field_start);
                if (comma == std::string::npos) comma = fields.size();
                const std::string_view field =
                    trim(std::string_view(fields).substr(field_start, comma - field_start));
                field_start = comma + 1;
                if (field.empty()) continue;
                const auto eq = field.find('=');
                if (eq == std::string_view::npos) return std::nullopt;
                const std::string_view key = field.substr(0, eq);
                std::size_t value_pos = 0;
                const std::string_view value_text = field.substr(eq + 1);
                auto value = read_double(value_text, &value_pos);
                if (!value || value_pos != value_text.size()) return std::nullopt;
                if (key == "bid") {
                    plan.policy.bid_timeout = *value;
                } else if (key == "detect") {
                    plan.policy.detection_timeout = *value;
                } else if (key == "grace") {
                    plan.policy.processing_grace = *value;
                } else if (key == "pay") {
                    plan.policy.payment_timeout = *value;
                } else {
                    return std::nullopt;
                }
            }
        } else {
            return std::nullopt;
        }
    }
    try {
        plan.validate();
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
    return plan;
}

// ---- delivery ruling -------------------------------------------------------

DeliveryRuling churn_ruling(const ChurnPlan& plan, const std::string& from,
                            const std::string& to, std::uint32_t wire_type,
                            double sent_at, double now, bool redelivery) {
    DeliveryRuling ruling;
    if (!plan.enabled()) return ruling;
    // A frame from a crashed sender never made it onto the bus. (down() is
    // false for the referee/user — validate() keeps them out of the plan.)
    if (!redelivery && plan.down(from, sent_at)) {
        ruling.action = ChurnAction::kDrop;
        ruling.note = "drop from=" + from + " type=" + std::to_string(wire_type) +
                      " reason=sender-down";
        return ruling;
    }
    if (plan.cut(to, now)) {
        ruling.action = ChurnAction::kDrop;
        ruling.note = "drop from=" + from + " type=" + std::to_string(wire_type) +
                      " reason=recipient-cut";
        return ruling;
    }
    if (!redelivery) {
        const double extra = plan.delivery_delay(to, now);
        if (extra > 0.0) {
            ruling.action = ChurnAction::kDelay;
            ruling.delay = extra;
            ruling.note = "delay from=" + from + " type=" + std::to_string(wire_type) +
                          " extra=" + fmt_double(extra);
        }
    }
    return ruling;
}

}  // namespace dlsbl::protocol

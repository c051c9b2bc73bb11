// Churn / fault-injection plans for protocol runs.
//
// A ChurnPlan is a seed-deterministic availability trace: crash and
// (possibly stale) restart events per processor, plus message-loss and
// message-delay windows. The driver consults the plan through the pure
// churn_ruling() at every delivery, so a fixed (config, plan) pair yields
// byte-identical artifacts run after run.
//
// The paper proves truthfulness on a *static* bus; the plan plus the
// referee's churn responses (bid-deadline exclusion, processing watchdog,
// NCP-NFE reallocation of a dead processor's remaining blocks, pro-rata
// settlement for partial work in settlement.hpp — see DESIGN.md "Churn
// model") make the failure-prone workload expressible so the property
// harness can test where dominance survives.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace dlsbl::protocol {

enum class ChurnEventKind : std::uint8_t {
    kCrash = 1,         // processor leaves the bus (messages to/from it are cut)
    kRestart = 2,       // rejoins the bus; its round state is gone
    kRestartStale = 3,  // rejoins AND replays its stored (stale) signed state
};

const char* to_string(ChurnEventKind kind) noexcept;

struct ChurnEvent {
    std::string processor;
    double time = 0.0;
    ChurnEventKind kind = ChurnEventKind::kCrash;
};

// Messages delivered to `processor` inside [begin, end) are dropped.
struct LossWindow {
    std::string processor;
    double begin = 0.0;
    double end = 0.0;
};

// Messages delivered to `processor` inside [begin, end) arrive `delay` later.
struct DelayWindow {
    std::string processor;
    double begin = 0.0;
    double end = 0.0;
    double delay = 0.0;
};

// Referee reaction timings — sim-time deadlines, never wall clock.
struct ChurnPolicy {
    double bid_timeout = 0.5;        // bids missing at this deadline -> exclusion
    double detection_timeout = 0.05; // meter loss -> reallocation latency
    double processing_grace = 5.0;   // after bids: unstarted assignees are dead
    double payment_timeout = 0.25;   // meter broadcast -> retransmit -> settle
};

struct ChurnPlan {
    std::vector<ChurnEvent> events;
    std::vector<LossWindow> losses;
    std::vector<DelayWindow> delays;
    ChurnPolicy policy;

    [[nodiscard]] bool enabled() const noexcept {
        return !events.empty() || !losses.empty() || !delays.empty();
    }

    // Throws std::invalid_argument on a negative or non-finite event time,
    // window begin, delay or policy deadline (a window's end may be +inf:
    // open), an inverted window, a NaN anywhere, or an event naming the
    // referee/user (only processors churn).
    void validate() const;

    // Is `name` crashed at time t?  Crash/restart intervals are half-open:
    // down on [crash, restart), up again at the restart instant.
    [[nodiscard]] bool down(const std::string& name, double t) const;

    // Earliest crash of `name` inside [begin, end), if any.
    [[nodiscard]] std::optional<double> first_crash_in(const std::string& name,
                                                       double begin, double end) const;

    // Is delivery to `name` cut at time t (down or inside a loss window)?
    [[nodiscard]] bool cut(const std::string& name, double t) const;

    // Extra delivery latency for `name` at time t (0 outside delay windows).
    [[nodiscard]] double delivery_delay(const std::string& name, double t) const;

    // Times at which `name` performs a stale rejoin (kRestartStale events).
    [[nodiscard]] std::vector<double> stale_rejoin_times(const std::string& name) const;

    // Canonical byte encoding / tolerant decoder (fuzzed like wire bodies).
    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<ChurnPlan> deserialize(std::span<const std::uint8_t> data);

    // Human-readable spec, e.g.
    //   "crash:P3@0.1;restart:P3@0.5;loss:P2@0.2-0.4;delay:P1@0-0.1+0.05"
    // parse() accepts exactly what spec() emits (plus whitespace); the
    // policy segment "policy:bid=..,detect=..,grace=..,pay=.." is optional.
    [[nodiscard]] std::string spec() const;
    static std::optional<ChurnPlan> parse(std::string_view text);
};

// What the driver should do with a frame, given the plan. The ruling (and
// its trace note) is a pure function of its inputs, which is what keeps
// churn runs byte-identical per seed.
enum class ChurnAction : std::uint8_t { kDeliver, kDrop, kDelay };

struct DeliveryRuling {
    ChurnAction action = ChurnAction::kDeliver;
    double delay = 0.0;
    std::string note;  // recorded as a TraceKind::kChurn event on drop/delay
};

// Rules on one delivery attempt. `redelivery` marks the second leg of a
// delayed frame: only the recipient cut is re-checked (no re-delay).
DeliveryRuling churn_ruling(const ChurnPlan& plan, const std::string& from,
                            const std::string& to, std::uint32_t wire_type,
                            double sent_at, double now, bool redelivery);

}  // namespace dlsbl::protocol

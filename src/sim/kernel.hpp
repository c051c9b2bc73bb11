// Deterministic discrete-event simulation kernel.
//
// Events are (time, sequence#) ordered: two events at the same timestamp
// fire in scheduling order, so a run is a pure function of its inputs —
// protocol tests compare traces exactly. Time is simulated seconds;
// nothing here touches wall-clock time.
//
// A fan-out is k events scheduled at once: one callback that fires k times
// in a row (the bus delivering one broadcast to k recipients). It takes the
// k consecutive sequence numbers k separate schedule_at calls would, so it
// fires exactly where they would, and each firing counts as one event.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace dlsbl::sim {

class Simulator {
 public:
    using Callback = std::function<void()>;

    [[nodiscard]] double now() const noexcept { return now_; }

    // Schedules `fn` at absolute simulated time `time` (>= now).
    void schedule_at(double time, Callback fn) { schedule_fanout_at(time, 1, std::move(fn)); }

    // Schedules `fn` `delay` seconds from now (delay >= 0).
    void schedule_after(double delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

    // Schedules `fn` to fire `count` times in a row at `time` (>= now): one
    // event per firing, none of them interleaved with any other event.
    // count 0 schedules nothing.
    void schedule_fanout_at(double time, std::size_t count, Callback fn);

    // Runs events until the queue drains (or `max_events` fire — a runaway
    // guard; exceeding it throws, since a correct protocol run terminates).
    // Every firing of a fan-out counts, and the guard is checked after each.
    void run(std::uint64_t max_events = 10'000'000);

    // Fires the single next event (one firing of a fan-out); returns false
    // when the queue is empty.
    bool step();

    // Firings not yet made.
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
    [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
    struct Event {
        double time = 0.0;
        std::uint64_t seq = 0;
        std::size_t remaining = 0;  // firings left
        Callback fn;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t pending_ = 0;
    // Binary heap under Later (std::push_heap / std::pop_heap), so the next
    // event can be moved out rather than copied from a const top().
    std::vector<Event> heap_;
    // The fan-out being fired: taken off the heap at its first firing and
    // kept here until its last. Anything scheduled meanwhile orders after it.
    Event firing_;
};

}  // namespace dlsbl::sim

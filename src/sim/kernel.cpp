#include "sim/kernel.hpp"

#include <algorithm>
#include <cmath>

namespace dlsbl::sim {

void Simulator::schedule_fanout_at(double time, std::size_t count, Callback fn) {
    if (!std::isfinite(time)) throw std::invalid_argument("Simulator: non-finite time");
    if (time < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    if (!fn) throw std::invalid_argument("Simulator: empty callback");
    if (count == 0) return;
    heap_.push_back(Event{time, next_seq_, count, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    next_seq_ += count;
    pending_ += count;
}

bool Simulator::step() {
    if (firing_.remaining == 0) {
        if (heap_.empty()) return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        firing_ = std::move(heap_.back());
        heap_.pop_back();
    }
    now_ = firing_.time;
    ++fired_;
    --pending_;
    if (--firing_.remaining > 0) {
        firing_.fn();
        return true;
    }
    // Last firing: the callback, and everything it captured, is released
    // when this step returns.
    const Callback fn = std::move(firing_.fn);
    fn();
    return true;
}

void Simulator::run(std::uint64_t max_events) {
    while (step()) {
        if (fired_ > max_events) {
            throw std::runtime_error("Simulator: event budget exceeded (runaway run?)");
        }
    }
}

}  // namespace dlsbl::sim

#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlsbl::sim {

Network::Network(Simulator& simulator, double unit_comm_time, double control_latency,
                 double control_seconds_per_byte)
    : simulator_(simulator),
      z_(unit_comm_time),
      control_latency_(control_latency),
      control_seconds_per_byte_(control_seconds_per_byte) {
    if (unit_comm_time < 0.0 || control_latency < 0.0 || control_seconds_per_byte < 0.0) {
        throw std::invalid_argument("Network: negative timing parameter");
    }
}

double Network::reserve_control(std::size_t bytes) {
    const double occupancy = control_seconds_per_byte_ * static_cast<double>(bytes);
    if (occupancy <= 0.0) return simulator_.now() + control_latency_;
    // Bandwidth-charged: the message holds the one-port bus like a load
    // transfer does.
    const double start = std::max(simulator_.now(), bus_busy_until_);
    bus_busy_until_ = start + occupancy;
    return bus_busy_until_ + control_latency_;
}

void Network::attach(Process& process) {
    const auto [it, inserted] = processes_.emplace(process.name(), &process);
    (void)it;
    if (!inserted) {
        throw std::invalid_argument("Network: duplicate process name: " + process.name());
    }
}

bool Network::has_process(const std::string& name) const {
    return processes_.contains(name);
}

Process& Network::recipient(const std::string& name) const {
    const auto it = processes_.find(name);
    if (it == processes_.end()) {
        throw std::logic_error("Network: unknown recipient: " + name);
    }
    return *it->second;
}

void Network::start() {
    for (auto& [name, process] : processes_) {
        Process* p = process;
        simulator_.schedule_after(0.0, [p] { p->on_start(); });
    }
}

void Network::deliver(Process& recipient, const Envelope& envelope, bool redelivery) {
    if (interceptor_) {
        const DeliveryRuling ruling = interceptor_(envelope, simulator_.now(), redelivery);
        if (ruling.action == DeliveryAction::kDrop) {
            trace_.record(simulator_.now(), TraceKind::kChurn, envelope.to, ruling.note,
                          envelope.span_id);
            return;
        }
        if (ruling.action == DeliveryAction::kDelay) {
            trace_.record(simulator_.now(), TraceKind::kChurn, envelope.to, ruling.note,
                          envelope.span_id);
            simulator_.schedule_after(ruling.delay, [this, &recipient, e = envelope] {
                deliver(recipient, e, true);
            });
            return;
        }
    }
    trace_.record(simulator_.now(), TraceKind::kMessageDelivered, envelope.to,
                  "from=" + envelope.from + " type=" + std::to_string(envelope.type),
                  envelope.span_id);
    recipient.on_message(envelope);
}

void Network::send(const std::string& from, const std::string& to, std::uint32_t type,
                   util::Frame frame, std::uint64_t span_id) {
    Process& target = recipient(to);
    metrics_.count_control(frame.size());
    trace_.record(simulator_.now(), TraceKind::kMessageSent, from,
                  "to=" + to + " type=" + std::to_string(type) +
                      " bytes=" + std::to_string(frame.size()),
                  span_id);
    const double deliver_at = reserve_control(frame.size());
    simulator_.schedule_at(deliver_at, [this, &target,
                                        e = Envelope{from, to, type, std::move(frame),
                                                     simulator_.now(), span_id}] {
        deliver(target, e);
    });
}

void Network::broadcast(const std::string& from, std::uint32_t type, util::Frame frame,
                        std::uint64_t span_id) {
    metrics_.count_control(frame.size());
    trace_.record(simulator_.now(), TraceKind::kMessageSent, from,
                  "to=* type=" + std::to_string(type) +
                      " bytes=" + std::to_string(frame.size()),
                  span_id);
    // Atomic broadcast: one bus transmission, simultaneous delivery to all.
    const double deliver_at = reserve_control(frame.size());
    const std::size_t recipients = processes_.size() - (processes_.contains(from) ? 1 : 0);
    // One envelope for the whole fan-out, readdressed to each recipient in
    // turn; `next` walks the processes in name order, skipping the sender.
    simulator_.schedule_fanout_at(
        deliver_at, recipients,
        [this, next = processes_.begin(),
         e = Envelope{from, {}, type, std::move(frame), simulator_.now(), span_id}]() mutable {
            if (next->first == e.from) ++next;
            e.to = next->first;
            Process& target = *next->second;
            ++next;
            deliver(target, e);
        });
}

void Network::transfer_load(const std::string& from, const std::string& to, double units,
                            std::uint32_t type, util::Frame frame,
                            std::uint64_t span_id) {
    Process& target = recipient(to);
    if (units < 0.0) throw std::invalid_argument("Network: negative load transfer");
    const double start = std::max(simulator_.now(), bus_busy_until_);
    const double end = start + units * z_;
    bus_busy_until_ = end;
    metrics_.count_load_transfer(units);
    trace_.record(start, TraceKind::kLoadTransferStart, from,
                  "to=" + to + " units=" + std::to_string(units), span_id);
    simulator_.schedule_at(end, [this, &target, units,
                                 e = Envelope{from, to, type, std::move(frame),
                                              simulator_.now(), span_id}] {
        trace_.record(simulator_.now(), TraceKind::kLoadTransferEnd, e.from,
                      "to=" + e.to + " units=" + std::to_string(units), e.span_id);
        deliver(target, e);
    });
}

}  // namespace dlsbl::sim

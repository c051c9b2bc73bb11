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
    const auto at = lower_bound(process.name());
    if (at != processes_.end() && at->process->name() == process.name()) {
        throw std::invalid_argument("Network: duplicate process name: " + process.name());
    }
    processes_.insert(at, Attached{trace_.intern(process.name()), &process});
}

std::vector<Network::Attached>::const_iterator Network::lower_bound(
    std::string_view name) const {
    return std::lower_bound(
        processes_.begin(), processes_.end(), name,
        [](const Attached& attached, std::string_view key) {
            return attached.process->name() < key;
        });
}

const Network::Attached& Network::recipient(const std::string& name) const {
    const auto it = lower_bound(name);
    if (it == processes_.end() || it->process->name() != name) {
        throw std::logic_error("Network: unknown recipient: " + name);
    }
    return *it;
}

void Network::start() {
    for (const Attached& attached : processes_) {
        Process* p = attached.process;
        simulator_.schedule_after(0.0, [p] { p->on_start(); });
    }
}

void Network::deliver(Process& recipient, const Envelope& envelope, bool redelivery) {
    if (interceptor_) {
        DeliveryRuling ruling = interceptor_(envelope, simulator_.now(), redelivery);
        if (ruling.action == DeliveryAction::kDrop) {
            trace_.record_note(simulator_.now(), TraceKind::kChurn, envelope.to,
                               std::move(ruling.note), envelope.span_id);
            return;
        }
        if (ruling.action == DeliveryAction::kDelay) {
            trace_.record_note(simulator_.now(), TraceKind::kChurn, envelope.to,
                               std::move(ruling.note), envelope.span_id);
            simulator_.schedule_after(ruling.delay, [this, &recipient, e = envelope] {
                deliver(recipient, e, true);
            });
            return;
        }
    }
    trace_.record_delivery(simulator_.now(), envelope.to, envelope.from, envelope.type,
                           envelope.span_id);
    recipient.on_message(envelope);
}

void Network::send(const std::string& from, const std::string& to, std::uint32_t type,
                   util::Frame frame, std::uint64_t span_id) {
    const Attached& target = recipient(to);
    const Slot sender = trace_.intern(from);
    metrics_.count_control(frame.size());
    trace_.record_send(simulator_.now(), sender, target.slot, type, frame.size(), span_id);
    const double deliver_at = reserve_control(frame.size());
    simulator_.schedule_at(deliver_at, [this, process = target.process,
                                        e = Envelope{sender, target.slot, type,
                                                     std::move(frame), simulator_.now(),
                                                     span_id}] {
        deliver(*process, e);
    });
}

void Network::broadcast(const std::string& from, std::uint32_t type, util::Frame frame,
                        std::uint64_t span_id) {
    const auto at = lower_bound(from);
    const bool attached = at != processes_.end() && at->process->name() == from;
    const Slot sender = attached ? at->slot : trace_.intern(from);
    metrics_.count_control(frame.size());
    trace_.record_broadcast(simulator_.now(), sender, type, frame.size(), span_id);
    // Atomic broadcast: one bus transmission, simultaneous delivery to all.
    const double deliver_at = reserve_control(frame.size());
    const std::size_t recipients = processes_.size() - (attached ? 1 : 0);
    // One envelope for the whole fan-out, readdressed to each recipient in
    // turn; `next` walks the processes in name order, skipping the sender.
    simulator_.schedule_fanout_at(
        deliver_at, recipients,
        [this, next = std::size_t{0},
         e = Envelope{sender, kNoName, type, std::move(frame), simulator_.now(),
                      span_id}]() mutable {
            if (processes_[next].slot == e.from) ++next;
            const Attached& target = processes_[next++];
            e.to = target.slot;
            deliver(*target.process, e);
        });
}

void Network::transfer_load(const std::string& from, const std::string& to, double units,
                            std::uint32_t type, util::Frame frame,
                            std::uint64_t span_id) {
    const Attached& target = recipient(to);
    if (units < 0.0) throw std::invalid_argument("Network: negative load transfer");
    const Slot sender = trace_.intern(from);
    const double start = std::max(simulator_.now(), bus_busy_until_);
    const double end = start + units * z_;
    bus_busy_until_ = end;
    metrics_.count_load_transfer(units);
    trace_.record_transfer(start, TraceKind::kLoadTransferStart, sender, target.slot,
                           units, span_id);
    simulator_.schedule_at(end, [this, process = target.process, units,
                                 e = Envelope{sender, target.slot, type, std::move(frame),
                                              simulator_.now(), span_id}] {
        trace_.record_transfer(simulator_.now(), TraceKind::kLoadTransferEnd, e.from, e.to,
                               units, e.span_id);
        deliver(*process, e);
    });
}

}  // namespace dlsbl::sim

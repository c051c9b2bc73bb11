// One-port bus network model (§2 of the paper).
//
// Two traffic classes:
//   * control messages — bids, accusations, payment vectors. Delivered after
//     a configurable constant latency (default 0: the paper's timing model
//     charges only load movement). Broadcast is atomic and reliable, per the
//     paper's assumption ("the network has a reliable, atomic mechanism for
//     broadcasting information").
//   * load transfers — occupy the shared bus exclusively (one-port model):
//     a transfer of α units takes α·z bus seconds and transfers queue FIFO.
//
// The network is protocol-agnostic: payloads are opaque bytes and message
// types are small integers owned by the protocol layer. Every message
// travels as one immutable util::Frame: a broadcast's recipients all
// receive the same frame, never a copy of its bytes.
//
// Processes are addressed by slot. A slot is the id the process's name has
// in the network's trace, assigned once at attach(); envelopes and trace
// records carry slots, and name() renders one. Names are looked up only
// where an API names a process (attach, send, transfer_load, a broadcast's
// sender), O(m) times per run. A broadcast's Θ(m) deliveries walk the
// attached processes in name order and build or look up no string.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/frame.hpp"

namespace dlsbl::sim {

// A process's slot: its name's NameId in the network's trace.
using Slot = NameId;

struct Envelope {
    Slot from = kNoName;
    Slot to = kNoName;         // the recipient (each one in turn for a broadcast)
    std::uint32_t type = 0;    // protocol-defined discriminator
    util::Frame frame;         // shared by every recipient of one send
    double sent_at = 0.0;
    // Causal span of the send (0 = untracked). Receivers parent their own
    // spans/events on it, which is what links cross-processor causality in
    // the JSONL and Chrome-trace exports.
    std::uint64_t span_id = 0;
};

class Process {
 public:
    virtual ~Process() = default;
    // Called once after every process is attached, before any message flows.
    virtual void on_start() {}
    virtual void on_message(const Envelope& envelope) = 0;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
    explicit Process(std::string name) : name_(std::move(name)) {}

 private:
    std::string name_;
};

class Network {
 public:
    // control_seconds_per_byte: when > 0, control messages are charged for
    // bandwidth and occupy the shared bus like load transfers do (the
    // paper's complexity model counts their bytes; this knob makes those
    // bytes cost wall-clock time so the mechanism's Θ(m²) overhead becomes
    // measurable — bench E22). 0 keeps the paper's timing model, where only
    // load movement takes time.
    Network(Simulator& simulator, double unit_comm_time, double control_latency = 0.0,
            double control_seconds_per_byte = 0.0);

    // Processes are owned by the caller and must outlive the network. Attach
    // every process before the first message: a broadcast in flight walks
    // the attached processes by position.
    void attach(Process& process);

    // The name a slot stands for.
    [[nodiscard]] const std::string& name(Slot slot) const { return trace_.name(slot); }

    // Fires every process's on_start() at the current simulated time.
    void start();

    // Reliable unicast; counted in the communication-complexity metrics.
    // `span_id` (optional) stamps the send's causal span onto the trace
    // records and the delivered envelope.
    void send(const std::string& from, const std::string& to, std::uint32_t type,
              util::Frame frame, std::uint64_t span_id = 0);

    // Atomic reliable broadcast: every process except the sender receives
    // the one frame. Counted once (one bus transmission) and scheduled as
    // one fan-out: the recipients are served in name order, one event
    // each, exactly where one event per recipient would have fired. A
    // delivery interceptor still rules on each recipient separately.
    void broadcast(const std::string& from, std::uint32_t type, util::Frame frame,
                   std::uint64_t span_id = 0);

    // A load transfer of `units` load: waits for the bus, holds it for
    // units * z, then delivers the frame (the block batch) to `to`.
    void transfer_load(const std::string& from, const std::string& to, double units,
                       std::uint32_t type, util::Frame frame,
                       std::uint64_t span_id = 0);

    // Simulated time at which the bus next becomes free.
    [[nodiscard]] double bus_free_at() const noexcept { return bus_busy_until_; }

    [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] NetworkMetrics& metrics() noexcept { return metrics_; }
    [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }
    [[nodiscard]] double unit_comm_time() const noexcept { return z_; }

    // Fault-injection hook consulted on every delivery attempt (the network
    // itself stays protocol-agnostic: the interceptor owner interprets the
    // availability plan). kDrop suppresses delivery; kDelay reschedules it
    // `delay` later with redelivery=true (a redelivery is never re-delayed).
    // Either outcome records a TraceKind::kChurn event carrying `note`.
    enum class DeliveryAction { kDeliver, kDrop, kDelay };
    struct DeliveryRuling {
        DeliveryAction action = DeliveryAction::kDeliver;
        double delay = 0.0;
        std::string note;
    };
    using DeliveryInterceptor =
        std::function<DeliveryRuling(const Envelope&, double now, bool redelivery)>;
    void set_delivery_interceptor(DeliveryInterceptor interceptor) {
        interceptor_ = std::move(interceptor);
    }

 private:
    struct Attached {
        Slot slot = kNoName;
        Process* process = nullptr;
    };

    // Hands `envelope` (addressed to `recipient`) to the interceptor, then
    // to the recipient.
    void deliver(Process& recipient, const Envelope& envelope, bool redelivery = false);
    // The first attached process whose name is not below `name`.
    [[nodiscard]] std::vector<Attached>::const_iterator lower_bound(std::string_view name) const;
    [[nodiscard]] const Attached& recipient(const std::string& name) const;
    // Holds the bus for a control message of `bytes` when the bandwidth
    // model is on; returns the delivery time.
    double reserve_control(std::size_t bytes);

    Simulator& simulator_;
    double z_;
    double control_latency_;
    double control_seconds_per_byte_;
    double bus_busy_until_ = 0.0;
    // Every attached process, in name order: the broadcast fan-out order.
    std::vector<Attached> processes_;
    NetworkMetrics metrics_;
    TraceRecorder trace_;
    DeliveryInterceptor interceptor_;
};

}  // namespace dlsbl::sim

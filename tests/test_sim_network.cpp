#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace dlsbl::sim {
namespace {

class Recorder final : public Process {
 public:
    explicit Recorder(std::string name) : Process(std::move(name)) {}

    void on_start() override { started = true; }
    void on_message(const Envelope& envelope) override { inbox.push_back(envelope); }

    bool started = false;
    std::vector<Envelope> inbox;
};

util::Bytes bytes_of(const Envelope& envelope) {
    const auto bytes = envelope.frame.bytes();
    return util::Bytes(bytes.begin(), bytes.end());
}

struct Fixture {
    Simulator sim;
    Network net{sim, 0.5};  // z = 0.5
    Recorder a{"A"}, b{"B"}, c{"C"};

    Fixture() {
        net.attach(a);
        net.attach(b);
        net.attach(c);
    }
};

TEST(Network, StartInvokesAllProcesses) {
    Fixture f;
    f.net.start();
    f.sim.run();
    EXPECT_TRUE(f.a.started);
    EXPECT_TRUE(f.b.started);
    EXPECT_TRUE(f.c.started);
}

TEST(Network, UnicastDeliversToRecipientOnly) {
    Fixture f;
    f.net.send("A", "B", 7, util::to_bytes("hello"));
    f.sim.run();
    ASSERT_EQ(f.b.inbox.size(), 1u);
    EXPECT_EQ(f.net.name(f.b.inbox[0].from), "A");
    EXPECT_EQ(f.b.inbox[0].type, 7u);
    EXPECT_EQ(bytes_of(f.b.inbox[0]), util::to_bytes("hello"));
    EXPECT_TRUE(f.a.inbox.empty());
    EXPECT_TRUE(f.c.inbox.empty());
}

TEST(Network, BroadcastReachesAllButSender) {
    Fixture f;
    f.net.broadcast("A", 9, util::to_bytes("bid"));
    f.sim.run();
    EXPECT_TRUE(f.a.inbox.empty());
    ASSERT_EQ(f.b.inbox.size(), 1u);
    ASSERT_EQ(f.c.inbox.size(), 1u);
    EXPECT_EQ(bytes_of(f.b.inbox[0]), util::to_bytes("bid"));
    // Atomic: one shared frame, not merely equal bytes.
    EXPECT_EQ(f.b.inbox[0].frame.bytes().data(), f.c.inbox[0].frame.bytes().data());
}

// Equal-time order across fan-outs: two broadcasts at one timestamp with a
// unicast scheduled between them, a zero-delay timer and a reply scheduled
// from inside a delivery, and an interceptor that drops one recipient and
// delays another. Deliveries fire in scheduling order, recipient by
// recipient in name order, and everything scheduled from inside a delivery
// waits for every delivery scheduled before it.
TEST(Network, EqualTimeOrderAcrossFanOuts) {
    Simulator sim;
    Network net(sim, 0.5);
    std::vector<std::string> log;
    class Logger final : public Process {
     public:
        Logger(std::string name, std::vector<std::string>& log, Simulator& sim, Network& net)
            : Process(std::move(name)), log_(log), sim_(sim), net_(net) {}
        void on_message(const Envelope& envelope) override {
            log_.push_back(name() + "<-" + net_.name(envelope.from) + ":" +
                           std::to_string(envelope.type));
            if (name() == "B" && envelope.type == 1) {
                sim_.schedule_after(0.0, [this] { log_.push_back("B:timer"); });
                net_.send("B", "A", 7, util::to_bytes("re"));
            }
        }

     private:
        std::vector<std::string>& log_;
        Simulator& sim_;
        Network& net_;
    };
    Logger a{"A", log, sim, net}, b{"B", log, sim, net}, c{"C", log, sim, net},
        d{"D", log, sim, net};
    for (Process* p : std::initializer_list<Process*>{&d, &b, &a, &c}) net.attach(*p);
    net.set_delivery_interceptor(
        [&net](const Envelope& envelope, double, bool redelivery) -> Network::DeliveryRuling {
            if (envelope.type == 1 && net.name(envelope.to) == "C") {
                return {Network::DeliveryAction::kDrop, 0.0, "cut"};
            }
            if (envelope.type == 2 && net.name(envelope.to) == "D" && !redelivery) {
                return {Network::DeliveryAction::kDelay, 0.25, "late"};
            }
            return {};
        });

    net.broadcast("A", 1, util::to_bytes("one"));
    net.send("B", "C", 5, util::to_bytes("five"));
    net.broadcast("B", 2, util::to_bytes("two"));
    sim.run();

    EXPECT_EQ(log, (std::vector<std::string>{"B<-A:1", "D<-A:1", "C<-B:5", "A<-B:2",
                                             "C<-B:2", "B:timer", "A<-B:7", "D<-B:2"}));
    // Ten deliveries fired, the cut and the delayed attempt included.
    EXPECT_EQ(sim.events_fired(), 10u);
    std::vector<std::string> records;
    for (const auto& event : net.trace().events()) {
        records.push_back(std::to_string(event.time) + " " + to_string(event.kind) + " " +
                          net.trace().actor(event) + " " + net.trace().detail(event));
    }
    EXPECT_EQ(records, (std::vector<std::string>{
                           "0.000000 msg-sent A to=* type=1 bytes=3",
                           "0.000000 msg-sent B to=C type=5 bytes=4",
                           "0.000000 msg-sent B to=* type=2 bytes=3",
                           "0.000000 msg-delivered B from=A type=1",
                           "0.000000 msg-sent B to=A type=7 bytes=2",
                           "0.000000 churn C cut",
                           "0.000000 msg-delivered D from=A type=1",
                           "0.000000 msg-delivered C from=B type=5",
                           "0.000000 msg-delivered A from=B type=2",
                           "0.000000 msg-delivered C from=B type=2",
                           "0.000000 churn D late",
                           "0.000000 msg-delivered A from=B type=7",
                           "0.250000 msg-delivered D from=B type=2",
                       }));
}

TEST(Network, BroadcastCountedOnce) {
    Fixture f;
    f.net.broadcast("A", 9, util::to_bytes("xyz"));
    f.sim.run();
    EXPECT_EQ(f.net.metrics().control_messages(), 1u);
    EXPECT_EQ(f.net.metrics().control_bytes(), 3u);
}

TEST(Network, UnknownRecipientThrows) {
    Fixture f;
    EXPECT_THROW(f.net.send("A", "nobody", 1, {}), std::logic_error);
    EXPECT_THROW(f.net.transfer_load("A", "nobody", 1.0, 1, {}), std::logic_error);
}

TEST(Network, DuplicateAttachThrows) {
    Fixture f;
    Recorder dup{"A"};
    EXPECT_THROW(f.net.attach(dup), std::invalid_argument);
}

TEST(Network, LoadTransferTakesUnitsTimesZ) {
    Fixture f;
    f.net.transfer_load("A", "B", 0.4, 2, util::to_bytes("blocks"));
    f.sim.run();
    ASSERT_EQ(f.b.inbox.size(), 1u);
    EXPECT_DOUBLE_EQ(f.sim.now(), 0.4 * 0.5);
}

TEST(Network, OnePortSerializesTransfers) {
    // Two transfers queued at t=0 must occupy the bus back to back.
    Fixture f;
    std::vector<double> arrivals;
    f.net.transfer_load("A", "B", 0.4, 2, {});
    f.net.transfer_load("A", "C", 0.6, 2, {});
    EXPECT_DOUBLE_EQ(f.net.bus_free_at(), (0.4 + 0.6) * 0.5);
    f.sim.run();
    EXPECT_DOUBLE_EQ(f.sim.now(), 0.5);
}

TEST(Network, LoadTransfersExcludedFromControlMetrics) {
    Fixture f;
    f.net.transfer_load("A", "B", 0.4, 2, util::to_bytes("payload"));
    f.sim.run();
    EXPECT_EQ(f.net.metrics().control_messages(), 0u);
    EXPECT_EQ(f.net.metrics().load_transfers(), 1u);
    EXPECT_DOUBLE_EQ(f.net.metrics().load_units_moved(), 0.4);
}

TEST(Network, ControlLatencyDelaysDelivery) {
    Simulator sim;
    Network net(sim, 0.5, 0.25);
    Recorder a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    net.send("A", "B", 1, {});
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 0.25);
}

TEST(Network, PerPhaseAttribution) {
    Fixture f;
    f.net.metrics().set_phase("Bidding");
    f.net.broadcast("A", 1, util::to_bytes("ab"));
    f.net.metrics().set_phase("ComputingPayments");
    f.net.send("A", "B", 2, util::to_bytes("abcd"));
    f.sim.run();
    const auto& phases = f.net.metrics().by_phase();
    EXPECT_EQ(phases.at("Bidding").bytes, 2u);
    EXPECT_EQ(phases.at("ComputingPayments").bytes, 4u);
}

TEST(Network, TraceRecordsSendAndDeliver) {
    Fixture f;
    f.net.send("A", "B", 1, {});
    f.sim.run();
    EXPECT_EQ(f.net.trace().filter(TraceKind::kMessageSent).size(), 1u);
    EXPECT_EQ(f.net.trace().filter(TraceKind::kMessageDelivered).size(), 1u);
    EXPECT_EQ(f.net.trace().filter_actor("B").size(), 1u);
}

TEST(Network, NegativeParametersRejected) {
    Simulator sim;
    EXPECT_THROW(Network(sim, -1.0), std::invalid_argument);
    EXPECT_THROW(Network(sim, 1.0, -0.1), std::invalid_argument);
    Network net(sim, 1.0);
    Recorder a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    EXPECT_THROW(net.transfer_load("A", "B", -0.5, 1, {}), std::invalid_argument);
}

}  // namespace
}  // namespace dlsbl::sim

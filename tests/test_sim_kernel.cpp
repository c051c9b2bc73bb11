#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace dlsbl::sim {
namespace {

TEST(Kernel, RunsEventsInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(3.0, [&] { order.push_back(3); });
    sim.schedule_at(1.0, [&] { order.push_back(1); });
    sim.schedule_at(2.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Kernel, TiesBreakByScheduleOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(1.0, [&, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Kernel, NestedScheduling) {
    Simulator sim;
    std::vector<double> times;
    sim.schedule_at(1.0, [&] {
        times.push_back(sim.now());
        sim.schedule_after(0.5, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Kernel, ZeroDelayFiresAfterCurrentEvent) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(1.0, [&] {
        order.push_back(1);
        sim.schedule_after(0.0, [&] { order.push_back(3); });
        order.push_back(2);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, RejectsPastAndInvalid) {
    Simulator sim;
    sim.schedule_at(5.0, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(1.0 / 0.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(6.0, nullptr), std::invalid_argument);
}

TEST(Kernel, StepReturnsFalseWhenDrained) {
    Simulator sim;
    sim.schedule_at(0.0, [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Kernel, RunawayGuardThrows) {
    Simulator sim;
    // A self-perpetuating event chain trips the budget.
    std::function<void()> loop = [&] { sim.schedule_after(0.001, loop); };
    sim.schedule_after(0.0, loop);
    EXPECT_THROW(sim.run(1000), std::runtime_error);
}

// A fan-out of k fires k times in a row, exactly where k separate events
// scheduled at the same point would, and counts as k events.
TEST(Kernel, FanOutFiresWhereSeparateEventsWould) {
    const auto trace = [](bool fan_out) {
        Simulator sim;
        std::vector<int> order;
        sim.schedule_at(1.0, [&] { order.push_back(-1); });
        if (fan_out) {
            sim.schedule_fanout_at(1.0, 4, [&, k = 0]() mutable {
                order.push_back(k);
                // Scheduled from inside the fan-out: waits for all of it.
                if (k == 1) sim.schedule_after(0.0, [&] { order.push_back(100); });
                ++k;
            });
        } else {
            for (int k = 0; k < 4; ++k) {
                sim.schedule_at(1.0, [&, k] {
                    order.push_back(k);
                    if (k == 1) sim.schedule_after(0.0, [&] { order.push_back(100); });
                });
            }
        }
        sim.schedule_at(1.0, [&] { order.push_back(99); });
        sim.schedule_at(0.5, [&] { order.push_back(-2); });
        EXPECT_EQ(sim.pending(), 7u);
        sim.run();
        EXPECT_EQ(sim.events_fired(), 8u);
        EXPECT_EQ(sim.pending(), 0u);
        return order;
    };
    const std::vector<int> separate = trace(false);
    EXPECT_EQ(separate, (std::vector<int>{-2, -1, 0, 1, 2, 3, 99, 100}));
    EXPECT_EQ(trace(true), separate);
}

TEST(Kernel, StepFiresOneFanOutFiringAtATime) {
    Simulator sim;
    int fired = 0;
    sim.schedule_fanout_at(2.0, 3, [&] { ++fired; });
    sim.schedule_fanout_at(2.0, 0, [&] { ++fired; });  // nothing to fire
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.events_fired(), 1u);
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_TRUE(sim.step());
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, 3);
    EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Kernel, BudgetSmallerThanOneFanOutThrows) {
    // The runaway guard is checked per firing, inside a fan-out too.
    Simulator sim;
    int fired = 0;
    sim.schedule_fanout_at(0.0, 10, [&] { ++fired; });
    EXPECT_THROW(sim.run(3), std::runtime_error);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(sim.events_fired(), 4u);
}

// The fired event is moved out of the queue, never copied: a callback's
// captures (a broadcast's frame, say) are not duplicated per firing, and
// they are released once the event's last firing returns.
TEST(Kernel, FiredEventIsMovedNotCopied) {
    struct CopyCounter {
        int* copies;
        std::shared_ptr<int> token;
        CopyCounter(int* c, std::shared_ptr<int> t) : copies(c), token(std::move(t)) {}
        CopyCounter(const CopyCounter& other) : copies(other.copies), token(other.token) {
            ++*copies;
        }
        CopyCounter(CopyCounter&&) noexcept = default;
        CopyCounter& operator=(const CopyCounter&) = delete;
        CopyCounter& operator=(CopyCounter&&) = delete;
        ~CopyCounter() = default;
        void operator()() const {}
    };
    Simulator sim;
    int copies = 0;
    auto token = std::make_shared<int>(0);
    for (int i = 0; i < 8; ++i) {
        sim.schedule_at(static_cast<double>(8 - i), CopyCounter(&copies, token));
    }
    sim.schedule_fanout_at(9.0, 3, CopyCounter(&copies, token));
    EXPECT_EQ(token.use_count(), 10);
    sim.run();
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Kernel, EventsFiredCounts) {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_at(static_cast<double>(i), [] {});
    sim.run();
    EXPECT_EQ(sim.events_fired(), 5u);
    EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace dlsbl::sim

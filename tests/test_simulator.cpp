// Tests: discrete-event core.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace sdt::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&]() { order.push_back(3); });
  sim.schedule(10, [&]() { order.push_back(1); });
  sim.schedule(20, [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(Simulator, FifoForSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(7, [&, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  Time innerTime = -1;
  sim.schedule(5, [&]() {
    sim.schedule(10, [&]() { innerTime = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(innerTime, 15);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&]() { ++fired; });
  sim.schedule(100, [&]() { ++fired; });
  sim.runUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&]() {
    ++fired;
    sim.stop();
  });
  sim.schedule(2, [&]() { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ZeroDelayRunsNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule(0, [&]() { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, KeyPackingBoundary) {
  static_assert(Simulator::packKey(1, 0) == (1ULL << Simulator::kSlotBits));
  static_assert(Simulator::packKey(5, 7) == ((5ULL << Simulator::kSlotBits) | 7));
  // Round-trip at the field maxima — the seq boundary the overflow check guards.
  constexpr std::uint64_t maxSeq = Simulator::kMaxSeq - 1;
  constexpr auto maxSlot = static_cast<std::uint32_t>(Simulator::kSlotMask);
  constexpr std::uint64_t key = Simulator::packKey(maxSeq, maxSlot);
  static_assert(Simulator::keySeq(key) == maxSeq);
  static_assert(Simulator::keySlot(key) == maxSlot);
  // Field dominance: seq outranks slot, so the packed word compares as seq
  // and slot bits never decide an ordering.
  static_assert(Simulator::packKey(1, 0) > Simulator::packKey(0, maxSlot));
}

TEST(SimulatorDeathTest, SeqOverflowAbortsWithClearMessage) {
  Simulator sim;
  sim.debugSetNextSeq(Simulator::kMaxSeq - 1);
  sim.schedule(1, []() {});  // consumes the final sequence number — still fine
  EXPECT_DEATH(sim.schedule(1, []() {}), "exhausted its 40-bit event sequence space");
}

TEST(Simulator, EventExactlyOnBarrierBoundaryRunsNextWindow) {
  // runUntil() slices a run into windows [.., deadline]. An event landing
  // exactly one past a window's deadline belongs to the *next* window and
  // must never be lost or run early; one exactly on the deadline runs now.
  Simulator sim;
  constexpr Time kWindow = 500;
  std::vector<Time> fired;
  sim.schedule(0, [&]() {
    sim.schedule(kWindow, [&]() { fired.push_back(sim.now()); });
  });
  sim.schedule(kWindow - 1, [&]() { fired.push_back(sim.now()); });
  sim.runUntil(kWindow - 1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], kWindow - 1);
  EXPECT_EQ(sim.now(), kWindow - 1);
  EXPECT_FALSE(sim.empty());
  sim.runUntil(kWindow);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], kWindow);
  EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace sdt::sim

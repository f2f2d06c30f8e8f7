// Tests: discrete-event core.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <utility>
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

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.schedule(10, []() {});
  sim.run();
  ASSERT_EQ(sim.now(), 10);
  EXPECT_DEATH(sim.scheduleAt(9, []() {}), "event scheduled into the past");
  EXPECT_DEATH(sim.schedule(-1, []() {}), "event scheduled into the past");
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

/// Seed of the randomized queue workloads. CI's overload soak sets
/// SDT_FAULT_SEED so each soak job explores different schedules.
std::uint64_t queueSeed() {
  const char* env = std::getenv("SDT_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
}

/// The engine's ordering contract written the obvious way: a
/// std::priority_queue over (when, seq) with the same run/runUntil/stop
/// semantics as Simulator.
class ReferenceQueue {
 public:
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  void stop() { stopped_ = true; }

  void schedule(Time delay, std::function<void()> fn) {
    queue_.push(Item{now_ + delay, nextSeq_++, std::move(fn)});
  }

  Time run() { return runLoop(std::numeric_limits<Time>::max()); }

  Time runUntil(Time deadline) {
    runLoop(deadline);
    now_ = std::max(now_, deadline);
    return now_;
  }

 private:
  struct Item {
    Time when;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Item& o) const {
      return std::pair{when, seq} > std::pair{o.when, o.seq};
    }
  };

  Time runLoop(Time deadline) {
    stopped_ = false;
    const Time start = now_;
    while (!queue_.empty() && !stopped_ && queue_.top().when <= deadline) {
      Item top = queue_.top();
      queue_.pop();
      now_ = top.when;
      top.fn();
    }
    now_ = std::max(now_, start);
    return now_;
  }

  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
  bool stopped_ = false;
};

/// A seeded random event workload. Each event logs (id, now), then draws
/// from one RNG, in execution order, how many children to schedule, their
/// delays and whether to stop() the run. Two queues that execute in the same
/// order therefore see the same workload and produce the same log; the
/// first misordered event makes the logs diverge.
template <typename Queue>
class RandomWorkload {
 public:
  static constexpr int kSliceMark = -1;

  RandomWorkload(Queue& queue, std::uint64_t seed, int budget)
      : queue_(queue), rng_(seed), budget_(budget) {}

  /// Schedule one event from outside any running event.
  void spawn() { scheduleOne(); }

  /// Record where a run/runUntil slice ended.
  void markSlice() { log.emplace_back(kSliceMark, queue_.now()); }

  std::vector<std::pair<int, Time>> log;

 private:
  void fire(int id) {
    log.emplace_back(id, queue_.now());
    const auto children = static_cast<int>(rng_() % 4);
    for (int i = 0; i < children; ++i) scheduleOne();
    if (rng_() % 64 == 0) queue_.stop();
  }

  void scheduleOne() {
    if (nextId_ >= budget_) return;
    const int id = nextId_++;
    queue_.schedule(drawDelay(), [this, id]() { fire(id); });
  }

  Time drawDelay() {
    const auto draw = [this](Time bound) { return static_cast<Time>(rng_() % bound); };
    switch (rng_() % 8) {
      case 0:
      case 1:
        return 0;  // zero-delay bursts
      case 2:
        return 1 + draw(100);  // serialization-sized
      case 3:
        return 1000 - queue_.now() % 1000;  // pile onto shared timestamps
      case 4:
        return (Time{1} << 32) + draw(Time{1} << 33);  // crosses bit 32
      case 5:
        return draw(Time{1} << (1 + rng_() % 44));  // any bucket
      default:
        return 350 + draw(60000);  // pipeline, NIC and timer scale
    }
  }

  Queue& queue_;
  std::mt19937_64 rng_;
  int budget_;
  int nextId_ = 0;
};

/// Drive one workload through a mix of run(), runUntil() slices whose
/// deadlines fall between events or exactly on the shared timestamps,
/// stop()/resume, and schedules from outside between slices.
template <typename Queue>
std::vector<std::pair<int, Time>> driveWorkload(std::uint64_t seed) {
  Queue queue;
  RandomWorkload<Queue> work(queue, seed, 6000);
  std::mt19937_64 driver(seed ^ 0x9E3779B97F4A7C15ULL);
  for (int i = 0; i < 16; ++i) work.spawn();
  while (!queue.empty()) {
    switch (driver() % 4) {
      case 0:
        queue.run();  // until drained or stopped
        break;
      case 1:
        queue.runUntil(queue.now() + static_cast<Time>(driver() % 5000));
        break;
      case 2:
        queue.runUntil((queue.now() / 1000 + 1 + static_cast<Time>(driver() % 3)) * 1000);
        break;
      default:
        queue.runUntil(queue.now() + (Time{1} << (driver() % 40)));
        break;
    }
    work.markSlice();
    for (auto n = driver() % 3; n > 0; --n) work.spawn();
  }
  return std::move(work.log);
}

TEST(SimulatorQueue, MatchesReferenceOrderOnRandomWorkloads) {
  const std::uint64_t base = queueSeed() * 1000;
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto engine = driveWorkload<Simulator>(base + s);
    const auto reference = driveWorkload<ReferenceQueue>(base + s);
    ASSERT_GT(engine.size(), 1000u) << "seed " << base + s;
    ASSERT_EQ(engine, reference) << "seed " << base + s;
  }
}

TEST(Simulator, DestroysPendingClosuresInEveryBucket) {
  struct Counted {
    int* destroyed;
    int* ran;
    Counted(int* d, int* r) : destroyed(d), ran(r) {}
    Counted(Counted&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)), ran(o.ran) {}
    Counted(const Counted&) = delete;
    ~Counted() {
      if (destroyed != nullptr) ++*destroyed;
    }
    void operator()() const { ++*ran; }
  };
  /// Too big for the inline buffer: exercises the heap-spilled path.
  struct Big : Counted {
    using Counted::Counted;
    unsigned char pad[256] = {};
  };
  int destroyed = 0;
  int ran = 0;
  int scheduled = 0;
  {
    Simulator sim;
    // Pending events at the floor and in low, middle and top buckets.
    for (const Time delay : {Time{0}, Time{0}, Time{1}, Time{3}, Time{700}, Time{1} << 20,
                             Time{1} << 33, Time{1} << 40, Time{1} << 62}) {
      sim.schedule(delay, Counted{&destroyed, &ran});
      sim.schedule(delay, Big{&destroyed, &ran});
      scheduled += 2;
    }
    // Run the first few so that some buckets have been redistributed.
    sim.runUntil(1);
    EXPECT_EQ(ran, 6);
    EXPECT_EQ(destroyed, 6);
    sim.schedule(0, Counted{&destroyed, &ran});
    ++scheduled;
  }
  EXPECT_EQ(ran, 6);
  EXPECT_EQ(destroyed, scheduled);
}

}  // namespace
}  // namespace sdt::sim

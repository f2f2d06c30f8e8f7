// Discrete-event simulation core.
//
// The paper's evaluation baseline is a self-built event-driven simulator
// combining BookSim and SST/Macro features (§VI-A2); this is our equivalent.
// One engine runs one experiment serially; independent experiments run in
// parallel on separate engines through testbed::SweepRunner.
//
// Determinism contract: events run in (when, seq) order, where seq is the
// order of the schedule calls. Same-time events therefore run in FIFO
// submission order, and a run is a pure function of its inputs.
//
// Hot-path layout: an index-stable chunked slot arena with free-list reuse
// and small-buffer-optimized inline closures, and a two-tier queue over it.
// Both tiers thread intrusive FIFO lists through `keys_`, a {when, next}
// array parallel to the arena, and both append in schedule order.
//   - Near tier: a timing wheel of kWheelNs exact-nanosecond slots (Varghese
//     and Lauck's hashed wheel). An event with when - now() < kWheelNs goes
//     to slot `when & (kWheelNs - 1)`; every such event lies in
//     [now(), now() + kWheelNs), so one slot holds one `when` and needs no
//     sort. A two-level occupancy bitmap finds the next non-empty slot
//     when one empties; the wheel's earliest `when` is cached.
//   - Far tier: a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan's
//     radix heap) for everything later. Every pending `when` is at or above
//     its floor (the last time it popped). An event sits in bucket 0 when
//     `when` equals the floor, else in bucket 1 + (highest bit where `when`
//     and the floor differ). A bucket is redistributed into the (then empty)
//     lower buckets only when every lower bucket is empty, so every list
//     stays in schedule order and bucket 0's head is the tier's minimum.
// On equal `when` the far tier pops first: a far event at t was scheduled
// at or before t - kWheelNs and a near one after it, so the far one has the
// smaller seq. Steady-state scheduling does zero heap allocations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace sdt::sim {

using Time = TimeNs;

class Simulator {
 public:
  /// Horizon of the near tier: events due less than this far ahead sit in
  /// exact-nanosecond wheel slots, later ones in the radix queue. A power
  /// of two that covers every data-plane delay (serialization, pipeline,
  /// NIC, the 6.55 us NIC-backpressure re-poll).
  static constexpr Time kWheelNs = 8192;

  /// Inline closure storage. Sized for the data plane's closures, which
  /// carry `this`, port ids and a 4-byte packet-pool handle (never a Packet
  /// by value), so a Slot fills exactly one cache line.
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a closure of type F runs from its slot without a heap spill.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Engine geometry recorded by expbench/expbench.cpp: always one serial
  /// shard. Nothing else may call these.
  [[nodiscard]] static int envShards() { return 1; }
  /// See envShards(): always one worker, for expbench/expbench.cpp only.
  [[nodiscard]] static int envWorkers() { return 1; }

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at now() + delay (delay >= 0).
  template <typename F>
  void schedule(Time delay, F&& fn) {
    scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at `when` >= now(). An earlier `when` aborts in every
  /// build type: the queue would misorder it, not run it next.
  template <typename F>
  void scheduleAt(Time when, F&& fn) {
    if (when < now_) scheduledIntoPast(when);
    const std::uint32_t idx = acquireSlot();
    constructClosure(slotAt(idx), std::forward<F>(fn));
    push(when, idx);
  }

  /// Run until the queue drains or stop() is called. Returns final time.
  Time run();

  /// Run until simulated time `deadline` (events at exactly `deadline` run),
  /// then advance the clock to `deadline`. A run ended by stop() leaves the
  /// clock at the stopping event, so no pending event falls behind it.
  Time runUntil(Time deadline);

  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t eventsProcessed() const { return processed_; }
  [[nodiscard]] bool empty() const {
    return heads_[0] == kNoSlot && mask_ == 0 && wheelCount_ == 0;
  }

  /// Arena capacity high-water mark (slots ever allocated); perf
  /// introspection.
  [[nodiscard]] std::size_t arenaCapacity() const { return chunks_.size() * kChunkSlots; }

 private:
  static constexpr std::size_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Bucket 0 holds events at the floor; bucket b > 0 those whose highest
  /// bit differing from the floor is b - 1.
  static constexpr int kBuckets = 65;
  static constexpr std::uint32_t kWheelMask = static_cast<std::uint32_t>(kWheelNs) - 1;
  /// Occupancy bitmap words: one bit per wheel slot, one summary bit per word.
  static constexpr int kWheelWords = static_cast<int>(kWheelNs / 64);
  static_assert(std::has_single_bit(static_cast<std::uint64_t>(kWheelNs)) &&
                kWheelWords <= 64 * 2);

  /// What the slot's type-erased dispatcher should do; a single fused
  /// function pointer replaces separate invoke/destroy thunks so the hot
  /// path pays one indirect call per event, not two.
  enum class SlotOp : std::uint8_t {
    kRunAndDestroy,  ///< runLoop(): execute the closure, then destroy it
    kDestroyOnly,    ///< ~Simulator(): discard a never-run pending closure
  };

  struct Slot {
    void (*dispatch)(Slot&, SlotOp) = nullptr;
    std::uint32_t nextFree = kNoSlot;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 64, "a Slot should fill one cache line");

  /// A pending event's queue record, parallel to its arena slot: the queue
  /// walks these 16-byte records, never the 64-byte slots.
  struct Key {
    Time when = 0;
    std::uint32_t next = kNoSlot;  ///< next slot in the same bucket or wheel slot
  };
  static_assert(sizeof(Key) == 16);

  /// One exact-nanosecond wheel slot's FIFO; valid only while its
  /// occupancy bit is set.
  struct WheelList {
    std::uint32_t head;
    std::uint32_t tail;
  };

  template <typename F>
  static void constructClosure(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
      s.dispatch = [](Slot& slot, SlotOp op) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(slot.buf));
        if (op == SlotOp::kRunAndDestroy) (*f)();
        f->~Fn();
      };
    } else {
      // Oversized closure: spill to the heap, park the pointer in buf.
      Fn* f = new Fn(std::forward<F>(fn));
      std::memcpy(s.buf, &f, sizeof(f));
      s.dispatch = [](Slot& slot, SlotOp op) {
        Fn* f;
        std::memcpy(&f, slot.buf, sizeof(f));
        if (op == SlotOp::kRunAndDestroy) (*f)();
        delete f;
      };
    }
  }

  [[noreturn]] void scheduledIntoPast(Time when) const;

  [[nodiscard]] Slot& slotAt(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] int bucketOf(Time when) const {
    const auto diff = static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(floor_);
    return 64 - std::countl_zero(diff);
  }
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t idx);
  void append(int bucket, std::uint32_t idx);
  void push(Time when, std::uint32_t idx);
  void pushWheel(std::uint32_t idx);
  /// First occupied wheel slot at or after `from`, or -1.
  [[nodiscard]] int wheelScan(int from) const;
  /// Pops the head of wheelMin_'s slot; the wheel must not be empty.
  std::uint32_t popWheel();
  /// Earliest pending time in the radix tier; the tier must not be empty.
  [[nodiscard]] Time radixMin() const;
  std::uint32_t popRadix();
  Time runLoop(Time deadline);

  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< index-stable arena
  std::vector<Key> keys_;                        ///< parallel to the arena
  std::uint32_t freeHead_ = kNoSlot;
  std::unique_ptr<WheelList[]> wheel_;  ///< kWheelNs exact-time slots
  std::uint64_t wheelBits_[kWheelWords] = {};   ///< bit s <=> wheel slot s non-empty
  std::uint64_t wheelSummary_[2] = {};          ///< bit w <=> wheelBits_[w] != 0
  std::uint32_t wheelCount_ = 0;                ///< events in the wheel
  Time wheelMin_ = 0;  ///< earliest `when` in the wheel, while it is non-empty
  std::uint32_t heads_[kBuckets];       ///< first slot per bucket, kNoSlot if empty
  std::uint32_t tails_[kBuckets] = {};  ///< last slot per non-empty bucket
  Time mins_[kBuckets] = {};            ///< earliest `when` per non-empty bucket
  std::uint64_t mask_ = 0;              ///< bit b - 1 set <=> bucket b > 0 non-empty
  Time floor_ = 0;                      ///< every radix-tier when >= floor_; floor_ <= now_
  Time now_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace sdt::sim

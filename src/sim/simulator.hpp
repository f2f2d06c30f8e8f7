// Discrete-event simulation core.
//
// The paper's evaluation baseline is a self-built event-driven simulator
// combining BookSim and SST/Macro features (§VI-A2); this is our equivalent.
// One engine runs one experiment serially; independent experiments run in
// parallel on separate engines through testbed::SweepRunner.
//
// Determinism contract: every event carries the key (when, seq), where seq
// is a monotone counter bumped on every schedule call. Same-time events
// therefore run in FIFO submission order, and a run is a pure function of
// its inputs.
//
// Hot-path layout: a hand-rolled binary min-heap of 16-byte {when, seq|slot}
// records over an index-stable chunked slot arena with free-list reuse and
// small-buffer-optimized inline closures; pop uses bottom-up hole deletion.
// Steady-state scheduling does zero heap allocations.
#pragma once

#include <cassert>
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
  // -- Event-key bit budget ---------------------------------------------------
  /// Low bits of a key word address the event's arena slot.
  static constexpr unsigned kSlotBits = 24;
  /// High bits: the FIFO sequence number. 2^40 schedule calls per engine
  /// instance (~30 h sustaining 10M schedules/s) — checked at every push,
  /// not assumed.
  static constexpr unsigned kSeqBits = 40;
  static_assert(kSlotBits + kSeqBits == 64, "key must fill one word");
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << kSeqBits;

  /// Canonical event-ordering key: (when, seq) compares as (when, packKey)
  /// because seq occupies the high bits. Slot bits never decide an ordering
  /// (seq is unique), they just ride along.
  [[nodiscard]] static constexpr std::uint64_t packKey(std::uint64_t seq,
                                                       std::uint32_t slot) {
    return (seq << kSlotBits) | slot;
  }
  [[nodiscard]] static constexpr std::uint64_t keySeq(std::uint64_t key) {
    return key >> kSlotBits;
  }
  [[nodiscard]] static constexpr std::uint32_t keySlot(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  Simulator() = default;
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

  template <typename F>
  void scheduleAt(Time when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    if (nextSeq_ >= kMaxSeq) seqOverflow();
    const std::uint64_t keyHi = packKey(nextSeq_++, 0);
    const std::uint32_t idx = acquireSlot();
    constructClosure(slotAt(idx), std::forward<F>(fn));
    push(when, keyHi | idx);
  }

  /// Run until the queue drains or stop() is called. Returns final time.
  Time run();

  /// Run until simulated time `deadline` (events at exactly `deadline` run).
  Time runUntil(Time deadline);

  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t eventsProcessed() const { return processed_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Arena capacity high-water mark (slots ever allocated); perf
  /// introspection.
  [[nodiscard]] std::size_t arenaCapacity() const { return chunks_.size() * kChunkSlots; }

  /// Test-only: forge the next sequence number to exercise the overflow
  /// boundary without scheduling 2^40 events.
  void debugSetNextSeq(std::uint64_t seq) { nextSeq_ = seq; }

 private:
  /// Inline closure storage. Sized so the data plane's largest closure
  /// (a Packet by value + `this` + port ids, 96 bytes today) stays off the
  /// heap while a Slot fills exactly two cache lines.
  static constexpr std::size_t kInlineBytes = 112;
  static constexpr std::size_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

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
  static_assert(sizeof(Slot) == 128, "a Slot should fill two cache lines");

  struct HeapItem {
    Time when;
    std::uint64_t seqSlot;  ///< packKey(seq, slot); breaks when-ties

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seqSlot & kSlotMask);
    }
  };
  static_assert(sizeof(HeapItem) == 16);

  /// True when `a` fires after `b` — the exact ordering the engine promises.
  /// Seqs are unique, so comparing the combined key word is decided by seq
  /// among same-time events. Bitwise (not short-circuit) ops: the outcome
  /// is a data-dependent coin-flip in the heap walks, so flag arithmetic
  /// beats a mispredicted branch.
  [[nodiscard]] static bool later(const HeapItem& a, const HeapItem& b) {
    return (a.when > b.when) | ((a.when == b.when) & (a.seqSlot > b.seqSlot));
  }

  template <typename F>
  static void constructClosure(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
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

  [[noreturn]] static void seqOverflow();

  [[nodiscard]] Slot& slotAt(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t idx);
  void push(Time when, std::uint64_t seqSlot);
  HeapItem popTop();
  Time runLoop(Time deadline);

  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< index-stable arena
  std::uint32_t freeHead_ = kNoSlot;
  std::vector<HeapItem> heap_;  ///< binary min-heap over (when, seq)
  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace sdt::sim

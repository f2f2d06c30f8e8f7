#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sdt::sim {

Simulator::~Simulator() {
  // Destroy pending closures without running them.
  for (const HeapItem& item : heap_) {
    Slot& s = slotAt(item.slot());
    s.dispatch(s, SlotOp::kDestroyOnly);
  }
}

void Simulator::seqOverflow() {
  std::fprintf(stderr,
               "FATAL: simulator exhausted its %u-bit event sequence space "
               "(2^%u schedule calls). Split the experiment into shorter runs.\n",
               kSeqBits, kSeqBits);
  std::abort();
}

std::uint32_t Simulator::acquireSlot() {
  if (freeHead_ == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    assert(base + kChunkSlots <= kSlotMask + 1 && "event arena exhausted");
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    Slot* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      chunk[i].nextFree = i + 1 < kChunkSlots ? base + i + 1 : kNoSlot;
    }
    freeHead_ = base;
  }
  const std::uint32_t idx = freeHead_;
  freeHead_ = slotAt(idx).nextFree;
  return idx;
}

void Simulator::releaseSlot(std::uint32_t idx) {
  slotAt(idx).nextFree = freeHead_;
  freeHead_ = idx;
}

void Simulator::push(Time when, std::uint64_t seqSlot) {
  const HeapItem item{when, seqSlot};
  heap_.push_back(item);
  // Sift up, moving holes instead of swapping (one store per level).
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], item)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

Simulator::HeapItem Simulator::popTop() {
  const HeapItem top = heap_.front();
  const HeapItem last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Bottom-up deletion: walk the hole down the min-child path all the way to
  // a leaf (one comparison per level), then bubble the displaced last
  // element back up (O(1) expected, since it usually belongs near a leaf).
  // Roughly halves the comparisons of a textbook sift-down.
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child < n) {
    // Min-child select as arithmetic, not a branch: which child wins is a
    // coin flip the predictor can't learn.
    if (child + 1 < n) {
      child += static_cast<std::size_t>(later(heap_[child], heap_[child + 1]));
    }
    heap_[hole] = heap_[child];
    hole = child;
    child = 2 * hole + 1;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!later(heap_[parent], last)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
  return top;
}

Time Simulator::runLoop(Time deadline) {
  stopped_ = false;
  const Time start = now_;
  while (!heap_.empty() && !stopped_ && heap_.front().when <= deadline) {
    const HeapItem top = popTop();
    now_ = top.when;
    ++processed_;
    // The slot stays acquired while the closure executes, so nested
    // schedule() calls can never recycle the buffer under the running
    // closure.
    Slot& s = slotAt(top.slot());
    s.dispatch(s, SlotOp::kRunAndDestroy);
    releaseSlot(top.slot());
  }
  // Between runs the clock never moves backwards.
  now_ = std::max(now_, start);
  return now_;
}

Time Simulator::run() { return runLoop(std::numeric_limits<Time>::max()); }

Time Simulator::runUntil(Time deadline) {
  runLoop(deadline);
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace sdt::sim

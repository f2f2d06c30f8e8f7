#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sdt::sim {

Simulator::Simulator() { std::fill(std::begin(heads_), std::end(heads_), kNoSlot); }

Simulator::~Simulator() {
  // Destroy pending closures without running them.
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t idx = head; idx != kNoSlot; idx = keys_[idx].next) {
      Slot& s = slotAt(idx);
      s.dispatch(s, SlotOp::kDestroyOnly);
    }
  }
}

void Simulator::scheduledIntoPast(Time when) const {
  std::fprintf(stderr,
               "FATAL: event scheduled into the past (when=%lld ns < now=%lld ns). "
               "Simulated time never runs backwards.\n",
               static_cast<long long>(when), static_cast<long long>(now_));
  std::abort();
}

std::uint32_t Simulator::acquireSlot() {
  if (freeHead_ == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    keys_.resize(chunks_.size() * kChunkSlots);
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

inline void Simulator::append(int bucket, std::uint32_t idx) {
  Key& key = keys_[idx];
  key.next = kNoSlot;
  if (heads_[bucket] == kNoSlot) {
    heads_[bucket] = idx;
    mins_[bucket] = key.when;
    if (bucket > 0) mask_ |= 1ULL << (bucket - 1);
  } else {
    keys_[tails_[bucket]].next = idx;
    mins_[bucket] = std::min(mins_[bucket], key.when);
  }
  tails_[bucket] = idx;
}

void Simulator::push(Time when, std::uint32_t idx) {
  keys_[idx].when = when;
  append(bucketOf(when), idx);
}

Time Simulator::minPending() const {
  return heads_[0] != kNoSlot ? floor_ : mins_[std::countr_zero(mask_) + 1];
}

std::uint32_t Simulator::popMin() {
  if (heads_[0] == kNoSlot) {
    // Raise the floor to the lowest non-empty bucket's minimum and spread
    // that bucket over the lower ones, which are all empty. Its events agree
    // with the new floor above bit b - 1, so they all land below b, in list
    // (= schedule) order; higher buckets keep their bucket index.
    const int b = std::countr_zero(mask_) + 1;
    std::uint32_t idx = heads_[b];
    heads_[b] = kNoSlot;
    mask_ &= mask_ - 1;
    floor_ = mins_[b];
    while (idx != kNoSlot) {
      const std::uint32_t next = keys_[idx].next;
      append(bucketOf(keys_[idx].when), idx);
      idx = next;
    }
  }
  const std::uint32_t idx = heads_[0];
  heads_[0] = keys_[idx].next;
  return idx;
}

Time Simulator::runLoop(Time deadline) {
  stopped_ = false;
  const Time start = now_;
  // Check the earliest time before popping: raising the floor past
  // `deadline` would let a later schedule() land below it.
  while (!empty() && !stopped_ && minPending() <= deadline) {
    const std::uint32_t idx = popMin();
    now_ = floor_;
    ++processed_;
    // The slot stays acquired while the closure executes, so nested
    // schedule() calls can never recycle the buffer under the running
    // closure.
    Slot& s = slotAt(idx);
    s.dispatch(s, SlotOp::kRunAndDestroy);
    releaseSlot(idx);
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

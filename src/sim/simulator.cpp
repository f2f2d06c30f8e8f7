#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sdt::sim {

Simulator::Simulator() : wheel_(std::make_unique_for_overwrite<WheelList[]>(kWheelNs)) {
  std::fill(std::begin(heads_), std::end(heads_), kNoSlot);
}

Simulator::~Simulator() {
  // Destroy pending closures without running them.
  const auto destroyList = [this](std::uint32_t head) {
    for (std::uint32_t idx = head; idx != kNoSlot; idx = keys_[idx].next) {
      Slot& s = slotAt(idx);
      s.dispatch(s, SlotOp::kDestroyOnly);
    }
  };
  for (const std::uint32_t head : heads_) destroyList(head);
  for (int slot = wheelScan(0); slot >= 0; slot = wheelScan(slot + 1)) {
    destroyList(wheel_[slot].head);
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

inline void Simulator::pushWheel(std::uint32_t idx) {
  Key& key = keys_[idx];
  key.next = kNoSlot;
  const std::uint32_t slot = static_cast<std::uint32_t>(key.when) & kWheelMask;
  WheelList& list = wheel_[slot];
  std::uint64_t& word = wheelBits_[slot / 64];
  const std::uint64_t bit = 1ULL << (slot % 64);
  if (wheelCount_++ == 0 || key.when < wheelMin_) wheelMin_ = key.when;
  if ((word & bit) != 0) {
    keys_[list.tail].next = idx;
  } else {
    list.head = idx;
    word |= bit;
    wheelSummary_[slot / 4096] |= 1ULL << (slot / 64 % 64);
  }
  list.tail = idx;
}

void Simulator::push(Time when, std::uint32_t idx) {
  keys_[idx].when = when;
  // Every pending when is >= now_, so within [now_, now_ + kWheelNs) a
  // wheel slot stands for exactly one `when`.
  if (when - now_ < kWheelNs) {
    pushWheel(idx);
  } else {
    append(bucketOf(when), idx);
  }
}

int Simulator::wheelScan(int from) const {
  if (from >= static_cast<int>(kWheelNs)) return -1;
  int w = from / 64;
  std::uint64_t bits = wheelBits_[w] & (~0ULL << (from % 64));
  if (bits == 0) {
    ++w;  // the rest of the word is empty: find the next non-empty word
    for (int sw = w / 64; bits == 0; ++sw) {
      if (w >= kWheelWords) return -1;
      const std::uint64_t summary = wheelSummary_[sw] & (~0ULL << (w % 64));
      if (summary != 0) {
        w = sw * 64 + std::countr_zero(summary);
        bits = wheelBits_[w];
      } else {
        w = (sw + 1) * 64;
      }
    }
  }
  return w * 64 + std::countr_zero(bits);
}

inline std::uint32_t Simulator::popWheel() {
  const int slot = static_cast<int>(static_cast<std::uint32_t>(wheelMin_) & kWheelMask);
  WheelList& list = wheel_[slot];
  const std::uint32_t idx = list.head;
  list.head = keys_[idx].next;
  --wheelCount_;
  if (list.head == kNoSlot) {
    std::uint64_t& word = wheelBits_[slot / 64];
    word &= ~(1ULL << (slot % 64));
    if (word == 0) wheelSummary_[slot / 4096] &= ~(1ULL << (slot / 64 % 64));
    if (wheelCount_ != 0) {
      // The slots after this one hold the next times up to the wheel's
      // end; the wrapped ones below it hold the rest of the horizon.
      int next = wheelScan(slot + 1);
      if (next < 0) next = wheelScan(0);
      wheelMin_ += (next - slot) & static_cast<int>(kWheelMask);
    }
  }
  return idx;
}

inline Time Simulator::radixMin() const {
  return heads_[0] != kNoSlot ? floor_ : mins_[std::countr_zero(mask_) + 1];
}

inline std::uint32_t Simulator::popRadix() {
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
  while (!stopped_) {
    const bool nearPending = wheelCount_ != 0;
    const bool farPending = heads_[0] != kNoSlot || mask_ != 0;
    if (!nearPending && !farPending) break;
    const Time farWhen = farPending ? radixMin() : std::numeric_limits<Time>::max();
    // On a tie the far tier runs first: it was scheduled earlier.
    const bool far = !nearPending || farWhen <= wheelMin_;
    const Time when = far ? farWhen : wheelMin_;
    // Check the earliest time before popping: raising the radix floor past
    // `deadline` would let a later schedule() land below it.
    if (when > deadline) break;
    const std::uint32_t idx = far ? popRadix() : popWheel();
    now_ = when;
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
  // After stop() events before `deadline` may still be pending; the clock
  // must not pass them.
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace sdt::sim

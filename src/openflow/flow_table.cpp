#include "openflow/flow_table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace sdt::openflow {

void ActionList::overflow() {
  std::fprintf(stderr,
               "FATAL: flow entry action list is full (%zu actions, one per "
               "ActionType)\n",
               kCapacity);
  std::abort();
}

int Match::specificity() const {
  int n = 0;
  n += inPort.has_value();
  n += srcAddr.has_value();
  n += dstAddr.has_value();
  n += srcPort.has_value();
  n += dstPort.has_value();
  n += protocol.has_value();
  n += trafficClass.has_value();
  return n;
}

std::string Match::describe() const {
  std::string out = "{";
  const auto field = [&](const char* name, auto opt) {
    if (opt) out += strFormat("%s=%lld ", name, static_cast<long long>(*opt));
  };
  field("in", inPort);
  field("src", srcAddr);
  field("dst", dstAddr);
  field("sport", srcPort);
  field("dport", dstPort);
  field("proto", protocol);
  field("tc", trafficClass);
  if (out.back() == ' ') out.pop_back();
  out += "}";
  return out;
}

bool sameRule(const FlowEntry& a, const FlowEntry& b) {
  return a.priority == b.priority && a.cookie == b.cookie && a.match == b.match &&
         a.actions == b.actions;
}

Status<Error> FlowTable::add(FlowEntry entry) {
  if (full()) {
    return makeError(strFormat("flow table full (%zu entries)", capacity_));
  }
  // Insert after all entries of >= priority, preserving stable order. The
  // table is sorted by descending priority, so that spot is an upper bound.
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry.priority,
      [](int priority, const FlowEntry& e) { return priority > e.priority; });
  entries_.insert(pos, std::move(entry));
  indexDirty_ = true;
  ++addsTotal_;
  return {};
}

std::size_t FlowTable::removeByCookie(std::uint64_t cookie) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return e.cookie == cookie;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::removeByEpoch(std::uint32_t epoch) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return cookieEpoch(e.cookie) == epoch;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::removeByTenant(std::uint16_t tenant) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return cookieTenant(e.cookie) == tenant;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::countTenant(std::uint16_t tenant) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
        return cookieTenant(e.cookie) == tenant;
      }));
}

std::size_t FlowTable::restampTenantEpoch(std::uint32_t epoch) {
  const std::uint16_t tenant = epochTenant(epoch);
  std::size_t changed = 0;
  for (FlowEntry& e : entries_) {
    if (cookieTenant(e.cookie) != tenant) continue;
    if (cookieEpoch(e.cookie) == epoch) continue;
    e.cookie = makeCookie(epoch, cookieTag(e.cookie));
    ++changed;
  }
  indexDirty_ = indexDirty_ || changed > 0;  // the index caches rule epochs
  restampsTotal_ += changed;
  return changed;
}

std::size_t FlowTable::restampEpoch(std::uint32_t epoch) {
  std::size_t changed = 0;
  for (FlowEntry& e : entries_) {
    if (cookieEpoch(e.cookie) == epoch) continue;
    e.cookie = makeCookie(epoch, cookieTag(e.cookie));
    ++changed;
  }
  indexDirty_ = indexDirty_ || changed > 0;  // the index caches rule epochs
  restampsTotal_ += changed;
  return changed;
}

std::size_t FlowTable::countEpoch(std::uint32_t epoch) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
        return cookieEpoch(e.cookie) == epoch;
      }));
}

bool FlowTable::removeExact(const FlowEntry& entry) {
  const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return sameRule(e, entry);
  });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  indexDirty_ = true;
  ++removesTotal_;
  return true;
}

void FlowTable::clear() {
  removesTotal_ += entries_.size();
  entries_.clear();
  indexDirty_ = true;
}

void FlowTable::buildIndex() const {
  records_.clear();
  keySlots_.clear();
  residual_.clear();
  std::size_t keyed = 0;
  for (const FlowEntry& e : entries_) keyed += e.match.inPort && e.match.dstAddr;
  if (keyed > 0) {
    int bits = 1;  // power-of-two slot count, load factor <= 1/2
    while ((std::size_t{1} << bits) < 2 * keyed) ++bits;
    keySlots_.assign(std::size_t{1} << bits, KeySlot{});
    slotShift_ = 64 - bits;
  }
  const std::size_t mask = keySlots_.size() - 1;

  // Counting sort by key: count each key's entries, lay the runs out back
  // to back, then fill every run in table order.
  std::vector<std::uint32_t> slotOf;  // per keyed entry, in table order
  slotOf.reserve(keyed);
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    const Match& m = entries_[pos].match;
    if (!(m.inPort && m.dstAddr)) {
      residual_.push_back(pos);
      continue;
    }
    const std::uint64_t key = indexKey(*m.inPort, *m.dstAddr);
    std::size_t i = homeSlot(key);
    while (keySlots_[i].count != 0 && keySlots_[i].key != key) i = (i + 1) & mask;
    keySlots_[i].key = key;
    ++keySlots_[i].count;
    slotOf.push_back(static_cast<std::uint32_t>(i));
  }
  std::uint32_t next = 0;
  for (KeySlot& slot : keySlots_) {
    slot.begin = next;
    next += slot.count;
  }
  records_.resize(keyed);
  std::size_t k = 0;
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    const FlowEntry& e = entries_[pos];
    const Match& m = e.match;
    if (!(m.inPort && m.dstAddr)) continue;
    IndexRecord& r = records_[keySlots_[slotOf[k++]].begin++];
    r.pos = pos;
    r.ruleEpoch = cookieEpoch(e.cookie);
    r.tc = m.trafficClass.value_or(0);
    r.tcExact = m.trafficClass.has_value();
    r.keyOnly = !m.srcAddr && !m.srcPort && !m.dstPort && !m.protocol;
  }
  for (KeySlot& slot : keySlots_) slot.begin -= slot.count;  // undo the fill cursor
  indexDirty_ = false;
}

std::uint32_t FlowTable::findPos(const PacketHeader& header) const {
  if (indexDirty_) buildIndex();
  // Epoch gate (consistent updates): a stamped header matches only rules of
  // its own epoch or epoch-wildcard rules; an unstamped header (epoch 0)
  // matches everything, preserving pre-epoch behaviour.
  const auto epochOk = [&](std::uint32_t ruleEpoch) {
    return header.epoch == 0 || ruleEpoch == 0 || ruleEpoch == header.epoch;
  };
  std::uint32_t best = kNoPos;
  if (!keySlots_.empty()) {
    const std::uint64_t key = indexKey(header.inPort, header.dstAddr);
    const std::size_t mask = keySlots_.size() - 1;
    for (std::size_t i = homeSlot(key); keySlots_[i].count != 0; i = (i + 1) & mask) {
      const KeySlot& slot = keySlots_[i];
      if (slot.key != key) continue;
      // A run is in match-preference order: its first full match is the
      // best indexed candidate.
      const IndexRecord* r = records_.data() + slot.begin;
      for (const IndexRecord* end = r + slot.count; r != end; ++r) {
        if (!epochOk(r->ruleEpoch)) continue;
        if (r->keyOnly ? !r->tcExact || r->tc == header.trafficClass
                       : entries_[r->pos].match.matches(header)) {
          best = r->pos;
          break;
        }
      }
      break;
    }
  }
  for (const std::uint32_t pos : residual_) {
    if (pos >= best) break;  // ascending: cannot beat the indexed winner
    if (epochOk(cookieEpoch(entries_[pos].cookie)) && entries_[pos].match.matches(header)) {
      best = pos;
      break;
    }
  }
  return best;
}

const FlowEntry* FlowTable::lookup(const PacketHeader& header) const {
  const std::uint32_t pos = findPos(header);
  return pos == kNoPos ? nullptr : &entries_[pos];
}

const FlowEntry* FlowTable::lookupAndCount(const PacketHeader& header, std::int64_t bytes) {
  const std::uint32_t pos = findPos(header);
  if (pos == kNoPos) return nullptr;
  FlowEntry& e = entries_[pos];
  ++e.packetCount;
  e.byteCount += static_cast<std::uint64_t>(bytes);
  return &e;
}

}  // namespace sdt::openflow

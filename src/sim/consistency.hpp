// Per-packet update-consistency checker (Reitblatt et al.'s property for
// two-phase network updates): during a live reconfiguration every packet
// must be forwarded end-to-end by exactly one configuration epoch's rules —
// never a mix of old- and new-epoch rules, and never dropped mid-path
// because the epoch it was stamped with was garbage-collected under it.
//
// The projected-network builder calls onLookup() from every switch's
// forwarder, so the checker sees each hop's (stamp epoch, matched-rule
// epoch) in simulation event order. Tests assert violations().empty() after
// driving traffic through a reconfiguration window.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/strings.hpp"

namespace sdt::sim {

class EpochConsistencyChecker {
 public:
  enum class ViolationKind : std::uint8_t {
    /// One packet matched concrete rules of two different epochs.
    kMixedEpoch,
    /// A packet that already matched at least one hop hit a table miss —
    /// its epoch's rules vanished under it (GC before the drain finished,
    /// or a rollback deleted rules an in-flight packet depended on).
    kMidPathMiss,
  };

  struct Violation {
    ViolationKind kind = ViolationKind::kMixedEpoch;
    std::uint64_t packetId = 0;
    int sw = -1;                    ///< physical switch where it was detected
    std::uint32_t firstEpoch = 0;   ///< epoch of the packet's earlier hops
    std::uint32_t secondEpoch = 0;  ///< conflicting epoch (kMixedEpoch only)

    [[nodiscard]] std::string describe() const {
      if (kind == ViolationKind::kMixedEpoch) {
        return strFormat("packet %llu matched epoch %u then epoch %u at switch %d",
                         static_cast<unsigned long long>(packetId), firstEpoch,
                         secondEpoch, sw);
      }
      return strFormat("packet %llu (epoch %u) hit a mid-path miss at switch %d",
                       static_cast<unsigned long long>(packetId), firstEpoch, sw);
    }
  };

  /// Record one flow-table lookup. `ruleEpoch` is the matched entry's
  /// cookie epoch (0 = epoch-wildcard rule, which is consistent with any
  /// epoch); ignored when `matched` is false.
  void onLookup(std::uint64_t packetId, int sw, bool matched,
                std::uint32_t ruleEpoch) {
    // The checker is a cross-cutting observer that callers may share across
    // threads; the lock keeps that safe at the cost of an uncontended
    // acquire per lookup.
    const std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    Track& t = tracks_[packetId];
    if (!matched) {
      if (t.matchedHops > 0) {
        violations_.push_back({ViolationKind::kMidPathMiss, packetId, sw,
                               t.firstRuleEpoch, 0});
      }
      return;
    }
    ++t.matchedHops;
    if (ruleEpoch == 0) return;  // wildcard rule: consistent with anything
    if (t.firstRuleEpoch == 0) {
      t.firstRuleEpoch = ruleEpoch;
    } else if (t.firstRuleEpoch != ruleEpoch) {
      violations_.push_back({ViolationKind::kMixedEpoch, packetId, sw,
                             t.firstRuleEpoch, ruleEpoch});
    }
  }

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  /// Packets that matched at least one concrete (non-wildcard-epoch) rule —
  /// evidence the checker actually exercised epoch-stamped paths.
  [[nodiscard]] std::size_t stampedPackets() const {
    std::size_t n = 0;
    for (const auto& [id, t] : tracks_) n += t.firstRuleEpoch != 0;
    return n;
  }

  void reset() {
    tracks_.clear();
    violations_.clear();
    lookups_ = 0;
  }

 private:
  struct Track {
    std::uint32_t firstRuleEpoch = 0;  ///< first concrete epoch matched
    std::uint32_t matchedHops = 0;
  };

  std::mutex mu_;
  std::unordered_map<std::uint64_t, Track> tracks_;
  std::vector<Violation> violations_;
  std::uint64_t lookups_ = 0;
};

}  // namespace sdt::sim
